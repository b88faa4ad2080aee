"""Spans around calls into curvop's layers, installed from outside the library.

Every public function a layer module defines is replaced, in every
``curvop.*`` namespace that holds a reference to it, by a wrapper that
records a span (id, parent id, name, start, end, operation id).  Spans stay
in memory until the run ends.  Self time (a span's duration minus its direct
children) and call counts are accumulated as spans close, so the per-layer
figures need no second pass over the span list.

Nothing here changes what a call computes: the wrapper passes arguments and
results through untouched.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("tensors", "action", "operators", "bochner", "catalog", "warped", "opfile", "cli", "verify")

# The names the benchmark's per-layer metrics are built on.  A name missing
# from its module stops the run: a renamed kernel must not silently drop out
# of the trace.
REQUIRED = {
    "tensors": ("Tensor0k", "Sym2", "PForm", "CurvTensor", "kulkarni_nomizu"),
    "action": ("ric_of", "so_act", "act_on_operator", "hat_norm_sq", "curvature_term", "hat"),
    "operators": (
        "CurvatureOperator", "bianchi_split", "alternation", "decompose", "tensor_from_op",
        "jacobi_eigh_batch", "jacobi_eigh", "spectrum",
    ),
    "bochner": ("direct_term_check", "lemma21_verdict", "betti_verdict", "tachibana_verdict", "normal_h_term"),
    "catalog": ("cp2_op", "sphere_product_op", "negative_2form_term_op", "negative_sym2_term_op"),
    "warped": ("ode_shoot", "integrate_warp_ode"),
    "opfile": ("dump_operator", "load_operator"),
    "cli": ("main",),
    "verify": ("run_suite",),
}

# Classes whose constructors are timed, as "<layer>.construct".
CONSTRUCTED = {
    "tensors": ("Tensor0k", "Sym2", "PForm", "CurvTensor"),
    "operators": ("CurvatureOperator",),
    "action": ("SoElement",),
}

# Layers whose every public function is wrapped.  verify and cli are entered
# through one function each; their other public functions are suite bodies,
# draws and command handlers, which count as the layer's own self time.
WRAP_ALL = ("tensors", "action", "operators", "bochner", "catalog", "warped", "opfile")

# Index helpers that run in a microsecond or less and are called from every
# constructor; a span around them would cost more than the call and shift
# time between layers rather than measure it.  ode_rhs is the RK4 inner
# field, four calls per step, inside the warped layer either way.
SKIP = frozenset({
    "tensors.check_dimension", "tensors.max_dimension", "tensors.wedge_count",
    "tensors.wedge_index", "tensors.same_dimension", "tensors.sort_with_sign",
    "warped.ode_rhs",
})


class Tracer:
    """Records spans for wrapped curvop calls; ``install`` / ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.matrices = 0
        self.op = 0
        self._stack = []  # [span id, child time] per open span
        self._next_id = 0
        self._undo = []

    # -- recording --------------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, 0.0])
        return sid, parent

    def _exit(self, name, sid, parent, start, end):
        frame = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.self_s[name] += dur - frame[1]
        self.total_s[name] += dur
        self.calls[name] += 1
        self.spans.append((sid, parent, name, start, end, self.op))

    def _wrap(self, fn, name):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, sid, parent, start, clock())

        return traced

    def _wrap_jacobi_batch(self, fn, name):
        inner = self._wrap(fn, name)
        tracer = self

        @functools.wraps(fn)
        def counted(mats, *args, **kwargs):
            tracer.matrices += len(mats)
            return inner(mats, *args, **kwargs)

        return counted

    def _wrap_run_suite(self, fn):
        """One span name per suite: verify.suite.<name>."""
        per_suite = {}

        @functools.wraps(fn)
        def traced(name, *args, **kwargs):
            if name not in per_suite:
                per_suite[name] = self._wrap(fn, f"verify.suite.{name}")
            return per_suite[name](name, *args, **kwargs)

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function in every loaded curvop namespace."""
        modules = {layer: importlib.import_module(f"curvop.{layer}") for layer in LAYERS}
        for layer, names in REQUIRED.items():
            missing = [name for name in names if not hasattr(modules[layer], name)]
            if missing:
                raise SystemExit(f"perfbench: curvop.{layer} no longer defines {', '.join(missing)}")
        replacements = {}
        for layer in WRAP_ALL:
            mod = modules[layer]
            for name, obj in vars(mod).items():
                label = f"{layer}.{name}"
                if name.startswith("_") or label in SKIP or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if label == "operators.jacobi_eigh_batch":
                    replacements[id(obj)] = (obj, self._wrap_jacobi_batch(obj, label))
                else:
                    replacements[id(obj)] = (obj, self._wrap(obj, label))
        main = modules["cli"].main
        replacements[id(main)] = (main, self._wrap(main, "cli.main"))
        run_suite = modules["verify"].run_suite
        replacements[id(run_suite)] = (run_suite, self._wrap_run_suite(run_suite))
        namespaces = [m for key, m in sorted(sys.modules.items()) if key == "curvop" or key.startswith("curvop.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))
        for layer, class_names in CONSTRUCTED.items():
            for class_name in class_names:
                cls = getattr(modules[layer], class_name)
                original = cls.__dict__["__init__"]
                cls.__init__ = self._wrap(original, f"{layer}.construct")
                self._undo.append((cls, "__init__", original))
        wrapped = {id(new) for _, new in replacements.values()}
        unwrapped = [f"{layer}.{name}" for layer, names in REQUIRED.items() for name in names
                     if name not in CONSTRUCTED.get(layer, ()) and id(getattr(modules[layer], name)) not in wrapped]
        if unwrapped:
            self.uninstall()
            raise SystemExit(f"perfbench: no span around {', '.join(unwrapped)} (no longer a plain function?)")
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def snapshot(self, with_spans=False):
        """Aggregates as plain data: self/total seconds and calls per name."""
        snap = {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "matrices": self.matrices,
            "spans": len(self.spans),
        }
        if with_spans:
            snap["span_list"] = self.spans
        return snap

    def absorb(self, snap):
        """Add a traced child process's snapshot, renumbering its spans."""
        for key in ("self_s", "total_s", "calls"):
            target = getattr(self, key)
            for name, value in snap[key].items():
                target[name] += value
        self.matrices += snap["matrices"]
        base = self._next_id
        for sid, parent, name, start, end, op in snap.get("span_list", ()):
            self.spans.append((base + sid, base + parent if parent >= 0 else -1, name, start, end, op))
            self._next_id = max(self._next_id, base + sid + 1)

    def write_spans(self, path):
        """Write every span as CSV: id, parent, name, start, end, operation."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end,op\n")
            for sid, parent, name, start, end, op in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r},{op}\n")
