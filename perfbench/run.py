"""curvop benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; curvop is imported from its src/ directory.
Workloads: identity, inequality, spectra, cli-session (see workloads.py).

--trace 0 measures the end-to-end metrics with no instrumentation:
  setup_s       median time from a fresh interpreter to ready (import plus the
                workload's warm-up), over SETUP_PROBES child processes
  pass_s        median wall time of one pass over the workload's operations
  call_p50_ms   median latency of one operation
  call_tail_ms  highest percentile with at least ten samples beyond it
  peak_rss_mb   peak resident memory of the process doing the work
Times are wall times rescaled by the host-speed factor measured around each
operation (workloads.HostSpeed); the raw times are kept in the record.
--trace 1 runs untraced passes for half the time and traced passes for the
other half, then the acceptance gates that belong to the workload, the
Jacobi/LAPACK reference timings and an import-time profile, and reports the
per-layer metrics (self times per pass from spans recorded around every call
into a curvop layer).  Per-layer times are raw wall times; a layer or gate
the workload does not exercise reads 0.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it holds the host context.  Everything else goes
to stderr; the full record (every pass, every operation, the whole trace
breakdown) and the spans go to perfbench/_out/.

"failed" counts the operations whose output is wrong, and "correct" is false
when there is any.  The known boundary-verdict defect is counted apart: the
float sign tests of betti/tachibana/lemma21 verdicts on operators whose exact
lowest eigenvalue sum is 0 (cp2, sphere products, Example 4.7 at its edge),
which random isometries flip.  Those operations are still run, timed and
judged, never skipped or re-drawn; their number is printed on stderr, kept in
the record ("known_defects") and reported by --trace 1 as
bochner.boundary_verdict_flips, and the per-layer error_rate includes them.
They stay out of "failed" so that the result counts only failures that are
not already known, and so that it does not vary with how many passes fit in
the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"

SETUP_PROBES = 5
IMPORT_PROBES = 3
REF_DIMS = (4, 6, 8)
REF_BATCH = 256
TAIL_BEYOND = 10
SUITES_REPORTED = (
    "prop-1.7", "prop-2.8", "prop-1.9", "prop-1.2", "prop-1.3",
    "lemma-2.2", "lemma-2.1-soundness", "exact-values",
)


# -- statistics ---------------------------------------------------------------

def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def summary(values):
    """Median, quartiles and count, for the record and the stderr table."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# -- host context ---------------------------------------------------------------

def _steal_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def host_sample():
    return {"loadavg": list(os.getloadavg()), "steal_ticks": _steal_ticks(), "time": time.time()}


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "curvop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def host_context(workload, seed, cpus, pinned):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if k in os.environ}
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(cpus),
        "pinned_cpu": pinned,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": threads or "library default (one per usable core: 1 once pinned)",
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


# -- child processes ------------------------------------------------------------

def setup_probe(workload, seed):
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    from workloads import CHILD_TIMEOUT_S, curvop_env

    argv = [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=curvop_env(ROOT), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times():
    """Milliseconds of numpy, scipy and curvop (total) in `import curvop.cli`,
    from `python -X importtime`: the cumulative time of each package's
    outermost entries."""
    from workloads import CHILD_TIMEOUT_S, curvop_env

    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import curvop.cli"], cwd=ROOT,
                          env=curvop_env(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit("perfbench: import profile of curvop.cli failed")
    # entries are printed children first, indented one step deeper than
    # their parent; a stack rebuilds the tree
    stack = []
    for line in done.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        depth, name, cum = len(match.group(3)), match.group(4), int(match.group(2))
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, name, cum, children))

    def outermost(nodes, package):
        total = 0
        for _, name, cum, children in nodes:
            if name == package or name.startswith(package + "."):
                total += cum
            else:
                total += outermost(children, package)
        return total

    return {pkg: outermost(stack, pkg) / 1000.0 for pkg in ("numpy", "scipy", "curvop")}


# -- reference timings ------------------------------------------------------------

def reference_timings(seed):
    """Jacobi against LAPACK (np.linalg.eigh): ms for one matrix, and ms per
    matrix in a batch of REF_BATCH, at n in REF_DIMS."""
    import numpy as np
    from curvop import jacobi_eigh, jacobi_eigh_batch

    rng = np.random.default_rng(seed)
    out = {}

    def median_time(fn, reps):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    for n in REF_DIMS:
        size = n * (n - 1) // 2
        stack = rng.normal(size=(REF_BATCH, size, size))
        stack = (stack + stack.transpose(0, 2, 1)) / 2.0
        single = stack[0]
        reps = 3 if n == 8 else 7
        out[f"operators.jacobi_eigh_ms.n{n}.single"] = 1e3 * median_time(lambda: jacobi_eigh(single), reps)
        out[f"ref.lapack_eigh_ms.n{n}.single"] = 1e3 * median_time(lambda: np.linalg.eigh(single), 51)
        out[f"operators.jacobi_eigh_ms.n{n}.batch"] = 1e3 * median_time(lambda: jacobi_eigh_batch(stack), 1) / REF_BATCH
        out[f"ref.lapack_eigh_ms.n{n}.batch"] = 1e3 * median_time(lambda: np.linalg.eigh(stack), 7) / REF_BATCH
    return out


# -- measuring ------------------------------------------------------------------

def run_passes(wl, speed, seed, first_pass, seconds, tracer=None):
    """Passes until `seconds` have gone by (at least one); pass i uses
    seed+i.  Each operation carries the mean host-speed factor of the
    samples taken before and after it, raised to the workload's exponent."""
    passes = []
    start = time.perf_counter()
    index = first_pass
    while not passes or time.perf_counter() - start < seconds:
        ops = []
        for run_op in wl.operations(seed + index, tracer):
            before = speed.refresh()
            if tracer is not None:
                tracer.op += 1
            op = run_op()
            op.speed = ((before + speed.refresh()) / 2.0) ** wl.speed_exponent
            ops.append(op)
        passes.append(ops)
        index += 1
    return passes


def end_to_end(passes, setup_samples, peak_rss_mb):
    """The end-to-end metrics from host-speed corrected times, and a record
    of corrected and raw summaries."""
    metrics, record = {}, {}
    for label, attr in (("corrected", "corrected_s"), ("raw", "latency_s")):
        setup = [elapsed * factor if label == "corrected" else elapsed for elapsed, factor in setup_samples]
        pass_times = [sum(getattr(op, attr) for op in ops) for ops in passes]
        latencies = [getattr(op, attr) * 1e3 for ops in passes for op in ops]
        tail_ms, tail_pct = tail(latencies)
        record[label] = {
            "setup_s": summary(setup),
            "pass_s": summary(pass_times),
            "call_ms": summary(latencies),
            "call_tail_ms": tail_ms,
            "call_tail_percentile": tail_pct,
        }
        if label == "corrected":
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "pass_s": (statistics.median(pass_times), "s"),
                "call_p50_ms": (statistics.median(latencies), "ms"),
                "call_tail_ms": (tail_ms, "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    return metrics, record


def per_layer(tracer, traced_passes, untraced_passes, gates, refs, imports, ops, speed):
    count = len(traced_passes)
    traced = [sum(op.latency_s for op in p) for p in traced_passes]
    untraced = [sum(op.latency_s for op in p) for p in untraced_passes]
    self_s, total_s, calls = tracer.self_s, tracer.total_s, tracer.calls

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / count

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    put("action.ric_of.calls", calls.get("action.ric_of", 0) / count, "count")
    for fn in ("ric_of", "so_act", "act_on_operator", "hat_norm_sq", "curvature_term", "hat", "construct"):
        put(f"action.{fn}.self_s", self_s.get(f"action.{fn}", 0.0) / count, "s")
    for fn in ("bianchi_split", "alternation", "decompose", "tensor_from_op", "jacobi_eigh_batch", "construct"):
        put(f"operators.{fn}.self_s", self_s.get(f"operators.{fn}", 0.0) / count, "s")
    put("operators.jacobi_eigh_batch.calls", calls.get("operators.jacobi_eigh_batch", 0) / count, "count")
    put("operators.jacobi_eigh_batch.matrices", tracer.matrices / count, "count")
    put("operators.spectrum.calls", calls.get("operators.spectrum", 0) / count, "count")
    put("tensors.construct.calls", calls.get("tensors.construct", 0) / count, "count")
    put("tensors.construct.self_s", self_s.get("tensors.construct", 0.0) / count, "s")
    put("tensors.kulkarni_nomizu.self_s", self_s.get("tensors.kulkarni_nomizu", 0.0) / count, "s")
    for fn in ("direct_term_check", "normal_h_term"):
        put(f"bochner.{fn}.self_s", self_s.get(f"bochner.{fn}", 0.0) / count, "s")
    verdicts = sum(self_s.get(f"bochner.{fn}", 0.0) for fn in ("lemma21_verdict", "betti_verdict", "tachibana_verdict"))
    put("bochner.verdicts.self_s", verdicts / count, "s")
    for fn in ("ode_shoot", "integrate_warp_ode"):
        put(f"warped.{fn}.self_s", self_s.get(f"warped.{fn}", 0.0) / count, "s")
    layers = {}
    for layer in ("tensors", "action", "operators", "bochner", "catalog", "warped", "opfile", "cli", "verify"):
        layers[layer] = layer_self(layer)
        put(f"{layer}.self_s", layers[layer], "s")
    for suite in SUITES_REPORTED:
        put(f"verify.suite.{suite}_s", total_s.get(f"verify.suite.{suite}", 0.0) / count, "s")
    for gate in ("ac2", "ac3", "ac4"):
        put(f"verify.gate.{gate}_s", gates.get(gate, 0.0), "s")
    for pkg, value in imports.items():
        put(f"import.{pkg}_ms", value, "ms")
    for name, value in refs.items():
        put(name, value, "ms")
    traced_mean = statistics.fmean(traced)
    put("trace.pass_s", traced_mean, "s")
    put("trace.untraced_pass_s", statistics.fmean(untraced), "s")
    put("trace.overhead_s", traced_mean - statistics.fmean(untraced), "s")
    put("trace.unattributed_s", traced_mean - sum(layers.values()), "s")
    put("trace.spans", len(tracer.spans) / count, "count")
    put("host.speed_factor", statistics.median(speed.factors), "ratio")
    wrong = sum(op.status != "ok" for op in ops)
    put("error_rate", wrong / len(ops), "ratio")
    flipped = [op for op in ops if op.status == "known-defect"]
    put("bochner.boundary_verdict_flips", len(flipped), "count")
    put("bochner.boundary_parallel_flips", sum(parallel_flipped(op) for op in flipped), "count")
    return metrics


def parallel_flipped(op):
    """Whether a boundary operation got a betti parallel_only or a
    tachibana parallel verdict wrong (a negative rounding-level sum)."""
    labels = op.note.partition(": ")[2].split(", ")
    return any(label.endswith(".parallel_only") or label == "tachibana.parallel" for label in labels)


def self_time_by_kind(spans, traced_passes):
    """Self seconds per (operation kind, span name), and seconds per kind,
    from the span list; traced operations are numbered from 1 in order."""
    kinds = [op.kind for ops in traced_passes for op in ops]
    child = {}
    for sid, parent, name, start, end, op in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out = {}
    for sid, parent, name, start, end, op in spans:
        per_kind = out.setdefault(kinds[op - 1], {})
        per_kind[name] = per_kind.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
    op_time = {}
    for ops in traced_passes:
        for op in ops:
            op_time[op.kind] = op_time.get(op.kind, 0.0) + op.latency_s
    return {kind: {"op_s": op_time[kind], "self_s": dict(sorted(names.items(), key=lambda kv: -kv[1]))}
            for kind, names in out.items()}


def main(argv=None):
    # One CPU for the benchmark and its children, set before numpy starts
    # its BLAS threads: the host-speed kernel must run where the work runs.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="curvop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "curvop" / "__init__.py").is_file():
        print(f"perfbench: no curvop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import curvop

    if Path(curvop.__file__).resolve().parent != (ROOT / "src" / "curvop").resolve():
        print(f"perfbench: imported curvop from {curvop.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    host = host_context(args.workload, args.seed, cpus, min(cpus))
    host["before"] = host_sample()
    wl = workloads.make(args.workload, ROOT, OUT_DIR, HERE / "child.py")
    speed = workloads.HostSpeed()
    record = {"args": vars(args)}
    try:
        if not args.trace:
            setup_samples = []
            for _ in range(SETUP_PROBES):
                before = speed.refresh()
                elapsed = setup_probe(args.workload, args.seed)
                factor = (before + speed.refresh()) / 2.0
                setup_samples.append((elapsed, factor ** speed.CHILD_EXPONENT))
            wl.setup(args.seed)
            passes = run_passes(wl, speed, args.seed, 0, args.seconds)
            if args.workload == "cli-session":
                peak_kb = wl.peak_rss_kb
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics, record["end_to_end"] = end_to_end(passes, setup_samples, peak_kb / 1024.0)
            ops = [op for p in passes for op in p]
        else:
            wl.setup(args.seed)
            untraced = run_passes(wl, speed, args.seed, 0, args.seconds / 2)
            tracer = Tracer()
            if args.workload != "cli-session":
                tracer.install()
            try:
                traced = run_passes(wl, speed, args.seed, len(untraced), args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            gates, gate_ops = wl.gates()
            refs = reference_timings(args.seed)
            samples = [import_times() for _ in range(IMPORT_PROBES)]
            imports = {pkg: statistics.median(s[pkg] for s in samples) for pkg in samples[0]}
            ops = [op for p in untraced + traced for op in p] + gate_ops
            metrics = per_layer(tracer, traced, untraced, gates, refs, imports, ops, speed)
            record["trace"] = tracer.snapshot()
            record["trace_by_kind"] = self_time_by_kind(tracer.spans, traced)
            tracer.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.csv.gz")
            passes = untraced + traced
    finally:
        wl.close()
    host["after"] = host_sample()

    failed = [op for op in ops if op.status == "failed"]
    known = [op for op in ops if op.status == "known-defect"]
    correct = not failed
    record.update(
        host=host,
        passes=[[(op.kind, op.latency_s, op.speed, op.status, op.note) for op in p] for p in passes],
        failures=[(op.kind, op.status, op.note) for op in failed],
        known_defects=[(op.kind, op.note) for op in known],
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}", file=sys.stderr)
    if "end_to_end" in record:
        for label, e2e in record["end_to_end"].items():
            print(f"{label}: passes {e2e['pass_s']['n']}, pass_s median {e2e['pass_s']['median']:.4g} "
                  f"q1 {e2e['pass_s']['q1']:.4g} q3 {e2e['pass_s']['q3']:.4g}; operations {e2e['call_ms']['n']}, "
                  f"tail = p{e2e['call_tail_percentile']:.1f}; setup_s {e2e['setup_s']['median']:.4g}", file=sys.stderr)
        print(f"host speed factor: median {statistics.median(speed.factors):.3f}, "
              f"range {min(speed.factors):.3f}..{max(speed.factors):.3f}", file=sys.stderr)
    for kind, entry in record.get("trace_by_kind", {}).items():
        top = ", ".join(f"{name} {100 * value / entry['op_s']:.0f}%"
                        for name, value in list(entry["self_s"].items())[:4])
        print(f"self-time shares of {kind} ({entry['op_s']:.3g} s): {top}", file=sys.stderr)
    wrong = len(failed) + len(known)
    print(f"error_rate {wrong}/{len(ops)} = {wrong / len(ops):.4g}: {len(failed)} failed, "
          f"{len(known)} boundary-verdict flips (known defect)", file=sys.stderr)
    for op in (failed + known)[:5]:
        print(f"  {op.kind}: {op.status}: {op.note}", file=sys.stderr)

    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
