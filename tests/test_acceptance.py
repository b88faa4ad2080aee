"""Acceptance gate: the eight criteria, each at its stated tolerance and
runtime budget, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

from curvop.cli import main
from curvop.verify import run_suite


def _gate(label, reports, budget=None):
    elapsed = sum(r.wall_time for r in reports)
    failures = [f for r in reports for f in r.failures]
    ok = not failures and (budget is None or elapsed <= budget)
    verdict = "PASS" if ok else "FAIL"
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"{label}: {verdict} ({elapsed:.1f}s{budget_note}, {len(failures)} failure(s))")
    assert not failures, f"{label}: {len(failures)} failures, first: {failures[:3]}"
    if budget is not None:
        assert elapsed <= budget, f"{label}: {elapsed:.1f}s over the {budget:.0f}s budget"


def test_ac1_exact_values():
    # metric KN square 8(n-1)n for n in 3..8; sphere products 2(p-1)p(n-p)
    # over 2 <= p <= n <= 8; 2-sphere products 4k(n-2); agreement at the
    # overlap; all to 1e-12 relative, under one second
    report = run_suite("exact-values", seed=42, tol=1e-12)
    _gate("AC1 exact catalog values", [report], budget=1.0)


def test_ac2_identity_suite():
    # the five identity families, 1000 random instances per dimension in
    # 3..7, relative tolerance 1e-9, under thirty seconds
    reports = [
        run_suite("prop-1.7", trials=1000, seed=42, tol=1e-9),
        run_suite("prop-2.8", trials=1000, seed=42, tol=1e-9),
        run_suite("prop-1.9", trials=1000, seed=42, tol=1e-9),
        run_suite("prop-1.2", trials=1000, seed=42, tol=1e-9),
        run_suite("prop-1.3", trials=1000, seed=42, tol=1e-9),
    ]
    _gate("AC2 identity suite", reports, budget=30.0)


def test_ac3_inequality_suite():
    # action-norm inequalities, 1e4 random (L, T) per kind per dimension in
    # 3..6, plus exact equality of the catalog extremals at 1e-12; under a
    # minute
    reports = [
        run_suite("lemma-2.2", trials=10000, seed=42),
        run_suite("lemma-2.2-sharpness", seed=42, tol=1e-12),
        run_suite("extremal-pform", seed=42),
    ]
    _gate("AC3 inequality suite", reports, budget=60.0)


def test_ac4_verdict_soundness():
    # paired check: whenever the eigenvalue-average verdict holds at the
    # kind's constant, the direct curvature term bound holds; 1e4 random
    # Bianchi operators and tensors per kind; under a minute
    report = run_suite("lemma-2.1-soundness", trials=2500, seed=42)
    _gate("AC4 verdict soundness", [report], budget=60.0)


def test_ac5_boundary_cases():
    # the flat-term 2-form, the negative-term family with its exact value
    # and (n-1)-nonnegativity, and the indefinite Einstein operator whose
    # six-eigenvalue expansion is negative and matches the curvature term
    report = run_suite("boundary-cases", seed=42)
    _gate("AC5 boundary cases", [report])


def test_ac6_singer_thorpe_structure():
    # multiplication table exact (to one ulp of sqrt(2)), Bianchi holding
    # exactly when the triple sums agree, over 1000 random sextuples
    report = run_suite("singer-thorpe", trials=1000, seed=42)
    _gate("AC6 split-basis structure", [report])


def test_ac7_warped_and_ode():
    # round jets all ones at 1e-12 for factors 2..4; crossings with radius
    # growth for n in 4..8 with scalar curvature within 1e-6 (the ode suite
    # runs at its default 1e-8, tighter than that); measured integrator
    # order at least 3.8; under thirty seconds
    reports = [
        run_suite("warped-round", seed=42, tol=1e-12),
        run_suite("warped-perturbed", seed=42),
        run_suite("ode", seed=42),
    ]
    _gate("AC7 warped products and shooting", reports, budget=30.0)


def test_ac8_determinism(capsys):
    # identical command and seed give identical reports modulo timing
    argv = ["verify", "--suite", "all", "--trials", "25", "--seed", "42"]
    start = time.perf_counter()
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert code1 == 0 and code2 == 0
    doc1 = json.loads(out1)
    doc2 = json.loads(out2)
    for doc in (doc1, doc2):
        for entry in doc:
            entry.pop("wall-time")
    ok = doc1 == doc2
    print(f"AC8 determinism: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s, {len(doc1)} suites)")
    assert ok, "reports differ beyond timing"
