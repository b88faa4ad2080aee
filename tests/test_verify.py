"""The verification layer itself: determinism and registry hygiene, and the
batched suites against their one-trial-at-a-time definitions."""

import math
import tracemalloc

import numpy as np
import pytest

from curvop import verify
from curvop.action import act_on_operator, hat_norm_sq, so_act
from curvop.bochner import TensorKind, direct_term_check, estimate_constant, lemma21_verdict
from curvop.operators import Spectrum, decompose, jacobi_eigh_batch, tensor_from_op
from curvop.tensors import CurvTensor, identity_sym2, kulkarni_nomizu
from curvop.verify import (
    SUITES,
    Report,
    _SUITE_IDS,
    _at_most,
    _close,
    _einstein_part,
    _require,
    _trial_rng,
    hat_wedge_closed_form,
    random_bianchi_operator,
    random_normal_matrix,
    random_pform,
    random_so,
    random_sym2,
    random_sym_operator,
    random_tensor,
    run_all,
    run_suite,
)


def test_every_suite_passes_at_small_trials():
    for name in SUITES:
        report = run_suite(name, trials=3, seed=123)
        assert report.passed, (name, report.failures[:3])


def test_reports_are_deterministic():
    a = run_suite("prop-1.1", trials=30, seed=9)
    b = run_suite("prop-1.1", trials=30, seed=9)
    assert a.to_document()["failures"] == b.to_document()["failures"]
    assert a.trials == b.trials == 30


def test_seed_changes_draws():
    # same suite, different seeds, still passing but distinct rng streams
    from curvop.verify import _trial_rng

    x = _trial_rng(1, 0, 0).normal()
    y = _trial_rng(2, 0, 0).normal()
    assert x != y


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nosuch")


def test_random_bianchi_operator_is_bianchi():
    rng = np.random.default_rng(5)
    for n in (3, 5):
        op = random_bianchi_operator(rng, n)
        assert op.bianchi_certified is True


def test_random_normal_matrix_is_normal():
    rng = np.random.default_rng(6)
    for n in (3, 4, 7):
        h = random_normal_matrix(rng, n)
        assert np.abs(h @ h.T - h.T @ h).max() < 1e-12


def test_closed_form_hat_zero_for_volume_form():
    rows = hat_wedge_closed_form(4, (0, 1, 2, 3))
    assert np.abs(rows).max() == 0.0


# -- the batched suites against per-trial references ---------------------------

def reference_lemma_2_2(seed, trials, tol):
    """lemma-2.2 one trial at a time through the single-object calls."""
    failures = []
    t = tol if tol is not None else 1e-10
    sid = _SUITE_IDS["lemma-2.2"]
    count = 0
    for n in (3, 4, 5, 6):
        g = identity_sym2(n)
        for _ in range(trials):
            rng = _trial_rng(seed, sid, count)
            count += 1
            lam = random_so(rng, n)
            lam_sq = lam.norm_sq()
            case = count % 5
            if case == 0:
                k = int(rng.integers(1, 5))
                tt = random_tensor(rng, n, k)
                _at_most(
                    failures,
                    ("generic", n, count),
                    so_act(lam, tt).norm_sq(),
                    k * k * tt.norm_sq() * lam_sq,
                    t,
                )
            elif case == 1:
                h = random_sym2(rng, n)
                _at_most(
                    failures,
                    ("sym2", n, count),
                    so_act(lam, h).norm_sq(),
                    4.0 * h.traceless().norm_sq() * lam_sq,
                    t,
                )
            elif case == 2:
                p = int(rng.integers(1, n))
                w = random_pform(rng, n, p)
                _at_most(
                    failures,
                    ("pform", n, count),
                    so_act(lam, w).norm_sq(),
                    min(p, n - p) * w.norm_sq() * lam_sq,
                    t,
                )
            elif case == 3:
                r = random_sym_operator(rng, n)
                lr = act_on_operator(lam, r).norm_sq()
                _at_most(
                    failures,
                    ("operator", n, count),
                    lr,
                    8.0 * r.traceless().norm_sq() * lam_sq,
                    t,
                )
                rm = tensor_from_op(r)
                lrm = so_act(lam, rm).norm_sq()
                _close(failures, ("tensor-factor", n, count), lrm, 4.0 * lr, t)
                rm0 = tensor_from_op(r.traceless())
                _at_most(failures, ("tensor", n, count), lrm, 8.0 * rm0.norm_sq() * lam_sq, t)
            else:
                h = random_sym2(rng, n)
                lhs = so_act(lam, kulkarni_nomizu(g, h)).norm_sq()
                _at_most(
                    failures,
                    ("kn", n, count),
                    lhs,
                    4.0 * kulkarni_nomizu(g, h.traceless()).norm_sq() * lam_sq,
                    t,
                )
                rb = random_bianchi_operator(rng, n)
                dec = decompose(rb)
                rm = tensor_from_op(rb)
                bound = (
                    4.0 * kulkarni_nomizu(g, dec.ric0).norm_sq() / (n - 2.0) ** 2
                    + 8.0 * dec.weyl.norm_sq()
                ) * lam_sq
                _at_most(failures, ("kn-curv", n, count), so_act(lam, rm).norm_sq(), bound, t)
    return failures


def reference_lemma_2_1_soundness(seed, trials, tol):
    """lemma-2.1-soundness one trial at a time through the single-object
    calls (the eigensolves batched, bit-identical to single ones)."""
    failures = []
    t = tol if tol is not None else 1e-9
    sid = _SUITE_IDS["lemma-2.1-soundness"]
    kinds = ("pform", "sym2", "curvature_einstein", "weyl")
    for n_index, n in enumerate((3, 4, 5, 6)):
        ops = []
        for trial in range(trials):
            rng = _trial_rng(seed, sid, n_index * trials + trial)
            ops.append(random_bianchi_operator(rng, n))
        vals, vecs = jacobi_eigh_batch(np.array([op.mat for op in ops]))
        for trial, op in enumerate(ops):
            rng = _trial_rng(seed, sid, 10_000_000 + n_index * trials + trial)
            spec = Spectrum(vals[trial], vecs[trial])
            shared = decompose(random_bianchi_operator(rng, n))
            for kind_name in kinds:
                if kind_name == "pform":
                    p = int(rng.integers(1, n))
                    kind = TensorKind.pform(p)
                    tt = random_pform(rng, n, p)
                elif kind_name == "sym2":
                    kind = TensorKind.sym2()
                    tt = random_sym2(rng, n)
                elif kind_name == "curvature_einstein":
                    kind = TensorKind.curvature_einstein()
                    tt = CurvTensor(_einstein_part(shared.scal, shared.weyl.array))
                else:
                    kind = TensorKind.weyl()
                    tt = shared.weyl
                c = estimate_constant(kind, n)
                margin = abs(rng.normal()) if rng.uniform() < 0.5 else 0.0
                average = spec.lowest_sum(math.floor(c)) / math.floor(c)
                kappa = min(0.0, average) - margin
                verdict = lemma21_verdict(spec, c, kappa)
                _require(failures, ("holds", n, trial, kind_name), verdict.holds)
                lhs, rhs, ok = direct_term_check(op, tt, kappa)
                _require(failures, ("direct", n, trial, kind_name), ok, lhs, rhs, t)
                lhs2, rhs2, ok2 = direct_term_check(op, tt, min(0.0, verdict.bound))
                _require(failures, ("direct-tight", n, trial, kind_name), ok2, lhs2, rhs2, t)
                if verdict.vanishing:
                    hat_sq = hat_norm_sq(tt)
                    floor_bound = verdict.lowest_sum / verdict.C_used * hat_sq
                    _at_most(
                        failures,
                        ("positive", n, trial, kind_name),
                        floor_bound,
                        lhs,
                        t,
                    )
    return failures


def assert_same_failures(got, want):
    assert [f.digest for f in got] == [f.digest for f in want]
    for a, b in zip(got, want):
        assert a.tolerance == b.tolerance
        for x, y in ((a.lhs, b.lhs), (a.rhs, b.rhs)):
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y))


REFERENCES = {
    "lemma-2.2": (reference_lemma_2_2, 25),
    "lemma-2.1-soundness": (reference_lemma_2_1_soundness, 20),
}


@pytest.mark.parametrize("seed", [3, 42, 77])
@pytest.mark.parametrize("tol", [None, -1.0])
@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_batched_suite_matches_per_trial_reference(name, tol, seed, monkeypatch):
    # a negative tolerance fails every comparison it governs, so the
    # failure lists are long and their order is checked; the small budget
    # splits every group into several chunks
    reference, trials = REFERENCES[name]
    want = reference(seed, trials, tol)
    assert_same_failures(run_suite(name, trials=trials, seed=seed, tol=tol).failures, want)
    monkeypatch.setattr(verify, "_CHUNK_BYTES", 1 << 13)
    assert_same_failures(run_suite(name, trials=trials, seed=seed, tol=tol).failures, want)
    if tol is not None:
        assert want


@pytest.mark.parametrize("name, trials", [("lemma-2.2", 50), ("lemma-2.1-soundness", 20)])
def test_suite_memory_flat_in_trials(name, trials, monkeypatch):
    # an eighth of the budget fills every chunk already at the smaller
    # count, so ten times the trials must not raise the traced peak
    monkeypatch.setattr(verify, "_CHUNK_BYTES", verify._CHUNK_BYTES // 8)
    run_suite(name, trials=3, seed=5)  # caches and lazy imports
    peaks = []
    for count in (trials, 10 * trials):
        tracemalloc.start()
        try:
            run_suite(name, trials=count, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0] + 2 ** 20, peaks
