"""Command-line front end.

Subcommands: verify (randomized/exact suites), catalog (write named example
operators), spectrum, bochner (verdicts on an operator file), warped and ode
(CSV profiles).  Machine output goes to stdout as JSON or CSV files,
diagnostics to stderr.  Exit codes: 0 success, 1 runtime or data failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .opfile import _emit

# Each command imports the modules it uses when it runs, so that a cold
# start compiles and loads only those (no bytecode cache is assumed).


class UsageError(Exception):
    """Bad names or parameter combinations; maps to exit code 2."""


class WriteError(Exception):
    """An output file that cannot be written; maps to exit code 1."""


def _print_json(doc):
    sys.stdout.write(_emit(doc) + "\n")


def _output(path, text):
    """Write text to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise WriteError(path) from exc


# -- verify -------------------------------------------------------------------

def cmd_verify(args) -> int:
    from .verify import SUITES, check_selection, run_suite

    if args.seed < 0:
        raise UsageError("--seed must be a non-negative integer")
    if args.tol is not None and not math.isfinite(args.tol):
        raise UsageError(f"--tol must be finite, got {args.tol}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    try:
        check_selection(names, args.trials)
    except KeyError:
        raise UsageError(f"unknown suite {args.suite!r}; known: {', '.join(SUITES)} or all") from None
    except ValueError as exc:
        raise UsageError(f"--{exc}") from None
    reports = [
        run_suite(name, trials=args.trials, seed=args.seed, tol=args.tol) for name in names
    ]
    _print_json([r.to_document() for r in reports])
    bad = sum(len(r.failures) for r in reports)
    if bad:
        print(f"{bad} failure(s) across {len(reports)} suite(s)", file=sys.stderr)
        return 1
    return 0


# -- catalog ------------------------------------------------------------------

# Each catalog entry and the flags it needs, by argument name; extremal-pform
# writes a pair of forms, every other entry an operator file.
_CATALOG = {
    "sphere-product": ("p", "n"),
    "s2-products": ("k", "n"),
    "cp2": (),
    "singer-thorpe": ("lambdas",),
    "example-4.7": ("n", "lam"),
    "remark-3.6": ("n", "K", "K1n"),
    "extremal-pform": ("p",),
}
# How a usage message names a flag whose argument name differs.
_FLAG_OF = {"lam": "lambda", "lambdas": "lambdas l1,..,l6"}


def _need(what, args, names):
    missing = [_FLAG_OF.get(name, name) for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"{what} needs --" + ", --".join(missing))


def _form_document(form) -> dict:
    return {"n": form.n, "p": form.p, "comps": list(form.comps)}


def _sym2_document(h) -> dict:
    return {"n": h.n, "matrix": [list(row) for row in h.mat]}


def _build_catalog_entry(args):
    """The operator of a catalog entry, the metadata fields of its own and
    its companion documents."""
    from . import catalog as cat
    from .action import curvature_term, hat_norm_sq

    name = args.name
    if name == "sphere-product":
        op = cat.sphere_product_op(args.p, args.n)
        return op, {"p": args.p, "hat_norm_sq": hat_norm_sq(op)}, None
    if name == "s2-products":
        op = cat.product_of_spheres_op(args.k, args.n)
        return op, {"k": args.k, "hat_norm_sq": hat_norm_sq(op)}, None
    if name == "cp2":
        return cat.cp2_op(), {}, None
    if name == "singer-thorpe":
        lams = [float(x) for x in args.lambdas.split(",")]
        op, basis = cat.singer_thorpe_op(lams)
        fields = {"lambdas": lams, "bianchi": op.bianchi_certified}
        return op, fields, {"basis": [{"comps": list(xi.comps)} for xi in basis]}
    if name == "example-4.7":
        op, form = cat.negative_2form_term_op(args.n, args.lam)
        fields = {
            "lambda": args.lam,
            "curvature_term": curvature_term(op, form, form),
            "form_norm_sq": form.norm_sq(),
        }
        return op, fields, {"two_form": _form_document(form)}
    # remark-3.6, the entry left
    from .bochner import normal_h_term

    op, h = cat.negative_sym2_term_op(args.n, args.K, args.K1n)
    fields = {"K": args.K, "K1n": args.K1n, "curvature_term": normal_h_term(op, h.mat)}
    return op, fields, {"sym2": _sym2_document(h)}


def cmd_catalog(args) -> int:
    from . import catalog as cat
    from .operators import spectrum
    from .opfile import dumps_operator

    if args.name not in _CATALOG:
        raise UsageError(f"unknown catalog entry {args.name!r}; known: {', '.join(_CATALOG)}")
    _need(f"catalog entry {args.name!r}", args, _CATALOG[args.name])
    if args.name == "extremal-pform":
        # form-only entry: no operator file, write the pair document directly
        try:
            w1, w2, lam = cat.extremal_pform(args.p)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        doc = {
            "entry": args.name,
            "p": args.p,
            "n": w1.n,
            "omega1": _form_document(w1),
            "omega2": _form_document(w2),
            "rotation": {"comps": list(lam.comps)},
        }
        _output(args.out, _emit(doc) + "\n")
        return 0
    try:
        op, fields, companions = _build_catalog_entry(args)
        meta = {"entry": args.name, **fields, "eigenvalues": list(spectrum(op).eigenvalues)}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _output(args.out, dumps_operator(op, metadata=meta, companions=companions))
    return 0


# -- spectrum / bochner -------------------------------------------------------

def cmd_spectrum(args) -> int:
    from .operators import spectrum
    from .opfile import load_operator

    op, _ = load_operator(args.file)
    s = spectrum(op)
    _print_json(
        {
            "file": args.file,
            "n": op.n,
            "eigenvalues": list(s.eigenvalues),
            "lowest_sums": list(np.cumsum(s.eigenvalues)),
        }
    )
    return 0


# Each bochner --kind and the flags its TensorKind constructor takes; the
# constructor is the kind's name with "_" for "-".
_BOCHNER_KINDS = {"pform": ("p",), "sym2": (), "curvature-einstein": (), "weyl": ()}


def cmd_bochner(args) -> int:
    from .bochner import TensorKind, _apply_rule, betti_bound, betti_verdict, estimate_constant, lemma21_verdict
    from .operators import spectrum
    from .opfile import load_operator

    op, _ = load_operator(args.file)
    n = op.n
    s = spectrum(op)
    if args.kind not in _BOCHNER_KINDS:
        raise UsageError(f"unknown kind {args.kind!r}; known: {', '.join(_BOCHNER_KINDS)}")
    flags = _BOCHNER_KINDS[args.kind]
    _need(f"kind {args.kind!r}", args, flags)
    try:
        make = getattr(TensorKind, args.kind.replace("-", "_"))
        kind = make(*(getattr(args, flag) for flag in flags))
        constant = estimate_constant(kind, n)
        floor_c, low, *_ = _apply_rule("lemma-2.1", s.eigenvalues, n, constant)
        doc = {
            "file": args.file,
            "n": n,
            "kind": args.kind,
            "C": constant,
            "floor_C": floor_c,
            "lowest_sum": float(low),
        }
        if args.p is not None:
            verdict = betti_verdict(s, n, args.p)
            doc["p"] = args.p
            doc["lowest_sum_n_minus_p"] = float(_apply_rule("betti", s.eigenvalues, n, args.p)[1])
            doc["vanishing"] = verdict.vanishing
            doc["parallel_only"] = verdict.parallel_only
        if args.kappa is not None:
            lemma = lemma21_verdict(s, constant, args.kappa)
            doc["kappa"] = args.kappa
            doc["holds"] = lemma.holds
            doc["term_vanishing"] = lemma.vanishing
        if args.kappa is not None and args.diameter is not None and args.c_const is not None:
            if args.p is None:
                raise ValueError("the bound needs --p")
            doc["bound"] = betti_bound(n, args.p, args.kappa, args.diameter, args.c_const)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _print_json(doc)
    return 0


# -- warped / ode -------------------------------------------------------------

# The most radii one `warped` run may sample; 10**5 samples take about 12 s.
_MAX_SAMPLES = 10 ** 5


def _write_rows(path, header, rows):
    # one %-template per line; "%.17g" formats each value as format(v, ".17g")
    line = ",".join(["%.17g"] * len(header)) + "\n"
    _output(path, ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows))


def cmd_warped(args) -> int:
    from .warped import dwp_eigenvalues, perturbed_profile

    try:
        profile = perturbed_profile(args.p, args.q, args.amp, args.center, args.width)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not 1 <= args.samples <= _MAX_SAMPLES:
        raise UsageError(f"samples must be between 1 and {_MAX_SAMPLES}, got {args.samples}")
    rs = np.linspace(0.0, math.pi / 2.0, args.samples + 2)[1:-1]
    header = ["r", "radial_p", "radial_q", "plane_p", "plane_q", "mixed"] + [
        f"low{k}" for k in range(1, 6)
    ]
    rows = []
    try:
        for r in rs:
            jet = profile(float(r))
            fams = dwp_eigenvalues(args.p, args.q, jet)
            # at most five copies of a family, so the work does not grow with p or q
            lowest = sorted(v for v, mult, _ in fams for _ in range(min(mult, 5)))[:5]
            rows.append([r] + [v for v, _, _ in fams] + list(np.cumsum(lowest)))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _write_rows(args.out, header, rows)
    return 0


def cmd_ode(args) -> int:
    from .warped import ode_shoot, trajectory_scal

    try:
        result = ode_shoot(args.n, args.x0, step=args.step, t_max=args.tmax)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if result.status != "crossed":
        print(f"integration ended without a crossing: {result.status}", file=sys.stderr)
        return 1
    scal = trajectory_scal(args.n, result.x, result.y)
    _write_rows(args.out, ["t", "x", "y", "scal"], zip(result.t, result.x, result.y, scal))
    t_cross, x1 = result.crossing
    print(f"crossing at t = {t_cross:.6f}, x = {x1:.12g}", file=sys.stderr)
    return 0


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvop",
        description="Curvature operator algebra: verification suites, example "
        "catalog, spectra, eigenvalue-sum verdicts, warped profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all", help="suite name or 'all'")
    p_verify.add_argument("--trials", type=int, default=None, help="override the per-suite trial count")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--tol", type=float, default=None, help="override the suite tolerance")
    p_verify.set_defaults(func=cmd_verify)

    p_cat = sub.add_parser("catalog", help="write a named example operator")
    p_cat.add_argument("--name", required=True)
    p_cat.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p_cat.add_argument("--n", type=int, default=None)
    p_cat.add_argument("--p", type=int, default=None)
    p_cat.add_argument("--k", type=int, default=None)
    p_cat.add_argument("--lambda", dest="lam", type=float, default=None)
    p_cat.add_argument("--lambdas", default=None, help="six comma-separated eigenvalues")
    p_cat.add_argument("--K", type=float, default=None)
    p_cat.add_argument("--K1n", type=float, default=None)
    p_cat.set_defaults(func=cmd_catalog)

    p_spec = sub.add_parser("spectrum", help="eigenvalues of an operator file")
    p_spec.add_argument("file")
    p_spec.set_defaults(func=cmd_spectrum)

    p_boch = sub.add_parser("bochner", help="eigenvalue-sum verdicts for an operator file")
    p_boch.add_argument("file")
    p_boch.add_argument("--kind", default="pform")
    p_boch.add_argument("--p", type=int, default=None)
    p_boch.add_argument("--kappa", type=float, default=None)
    p_boch.add_argument("--diameter", type=float, default=None)
    p_boch.add_argument("--c-const", dest="c_const", type=float, default=None)
    p_boch.set_defaults(func=cmd_bochner)

    p_warp = sub.add_parser("warped", help="doubly warped eigenvalue scan as CSV")
    p_warp.add_argument("--p", type=int, required=True)
    p_warp.add_argument("--q", type=int, required=True)
    p_warp.add_argument("--amp", type=float, default=0.0)
    p_warp.add_argument("--center", type=float, default=0.8)
    p_warp.add_argument("--width", type=float, default=0.1)
    p_warp.add_argument("--samples", type=int, default=100)
    p_warp.add_argument("--out", default=None)
    p_warp.set_defaults(func=cmd_warped)

    p_ode = sub.add_parser("ode", help="shoot the constant-curvature profile ODE")
    p_ode.add_argument("--n", type=int, required=True)
    p_ode.add_argument("--x0", type=float, required=True)
    p_ode.add_argument("--step", type=float, default=1e-4)
    p_ode.add_argument("--tmax", type=float, default=20.0)
    p_ode.add_argument("--out", default=None)
    p_ode.set_defaults(func=cmd_ode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except WriteError as exc:
        print(f"cannot write {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cli_entry():
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
