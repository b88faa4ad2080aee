"""Tier-1 and the stripped verify output under each BLAS and SIMD kernel
setting this host's numpy and OpenBLAS accept (ROADMAP item 18).

A setting is a pair of process-local environment variables:
OPENBLAS_CORETYPE forces one of OpenBLAS's x86-64 kernel sets, and
NPY_DISABLE_CPU_FEATURES turns off every feature numpy dispatches beyond
its build baseline (SSE up to SSE4.2 on an x86-64-v2 build).  OpenBLAS
maps each core type name to one of the kernel sets it was built with and
reports that set's name; a name it does not know runs the detected set.
The names that run one kernel set compute the same bits, so they make one
setting, labelled by the set and the first of them.  The settings are the
default, every other kernel set, numpy at its baseline, and numpy at its
baseline with the kernel set of Prescott, the oldest.  For each setting the script runs tier-1 and `curvop verify --suite all --seed 42`
with the wall times removed, one subprocess at a time, and prints a table
of the pass and fail counts, the verify exit code and the sha256 of the
stripped verify output.  A setting takes about 30 s, so the script stays
out of tier-1 and CI.

It uses the standard library only; the probe and the runs it starts import
numpy in their own processes.

Run from the repository root: python .github/scripts/kernel_matrix.py
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# OpenBLAS's x86-64 DYNAMIC_ARCH core types, oldest kernels first.
CORETYPES = (
    "Prescott", "Core2", "Penryn", "Dunnington", "Nehalem", "Atom", "Opteron", "Opteron_SSE3", "Barcelona",
    "Bobcat", "Bulldozer", "Piledriver", "Steamroller", "Excavator", "Sandybridge", "Haswell", "Zen",
    "SkylakeX", "Cooperlake", "SapphireRapids",
)

# Prints the core OpenBLAS runs and the features numpy dispatches beyond its
# baseline, as one JSON object.
PROBE = r"""
import ctypes, json
import numpy
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
core = None
with open("/proc/self/maps") as maps:
    paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("openblas_get_corename", "openblas_get_corename64_", "scipy_openblas_get_corename64_",
                 "scipy_openblas_get_corename"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            core = fn().decode()
            break
print(json.dumps({"core": core, "dispatch": list(getattr(umath, "__cpu_dispatch__", []))}))
"""


def child_env(**settings):
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env.update(settings)
    return env


def probe(**settings):
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=child_env(**settings))
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def tier1(env):
    """(passed, failed, the ids of the failed tests) of tier-1 under env."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    lines = done.stdout.strip().splitlines() or [""]
    counts = {word: int(count) for count, word in re.findall(r"(\d+) (passed|failed|error)", lines[-1])}
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return counts.get("passed", 0), counts.get("failed", 0) + counts.get("error", 0), failed


def verify_hash(env):
    """(exit code, sha256 of the verify output with the wall times removed)."""
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "curvop", "verify", "--suite", "all", "--seed", "42"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT)
    try:
        reports = json.loads(done.stdout)
    except ValueError:
        return done.returncode, "no JSON output"
    for report in reports:
        report.pop("wall-time", None)
    return done.returncode, hashlib.sha256(json.dumps(reports).encode()).hexdigest()[:16]


def settings():
    """The environment variables of every setting to run, by label."""
    default = probe()
    if default is None:
        sys.exit("the probe could not import numpy")
    kernels = {default["core"]: ["default"]}
    for name in CORETYPES:
        seen = probe(OPENBLAS_CORETYPE=name)
        if seen is not None:
            kernels.setdefault(seen["core"], []).append(name)
    out = {}
    for core, names in kernels.items():
        print(f"{core} kernels: OPENBLAS_CORETYPE={', '.join(names)}")
        out[f"{core} ({names[0]})"] = {} if core == default["core"] else {"OPENBLAS_CORETYPE": names[0]}
    if default["dispatch"]:
        baseline = {"NPY_DISABLE_CPU_FEATURES": " ".join(default["dispatch"])}
        core = next((core for core, names in kernels.items() if CORETYPES[0] in names), default["core"])
        oldest = f"{core} ({kernels[core][0]})"
        out["numpy baseline"] = baseline
        out[f"numpy baseline, {oldest}"] = {**baseline, **out[oldest]}
    return out


def main():
    rows = []
    for label, extra in settings().items():
        env = child_env(**extra)
        passed, failed, ids = tier1(env)
        code, digest = verify_hash(env)
        rows.append((label, passed, failed, code, digest))
        print(f"{label}: {passed} passed, {failed} failed; verify exit {code}, {digest}", flush=True)
        for test in ids:
            print(f"    {test}", flush=True)
    width = max(len(row[0]) for row in rows)
    print()
    print(f"| {'setting':<{width}} | passed | failed | verify exit | verify sha256[:16] |")
    print(f"|{'-' * (width + 2)}|--------|--------|-------------|--------------------|")
    for label, passed, failed, code, digest in rows:
        print(f"| {label:<{width}} | {passed:>6} | {failed:>6} | {code:>11} | {digest:<18} |")


if __name__ == "__main__":
    main()
