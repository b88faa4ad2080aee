"""The verification layer itself: determinism and registry hygiene, and the
batched suites against their one-trial-at-a-time definitions."""

import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from curvop import action, bochner, operators, verify
from curvop.action import act_on_operator, curvature_term, hat_norm_sq, inner, ric_of, so_act
from curvop.bochner import TensorKind, _apply_rule, direct_term_check, estimate_constant
from curvop.operators import (
    decompose,
    identity_operator,
    op_from_tensor,
    tensor_from_op,
)
from curvop.tensors import CurvTensor, Sym2, identity_sym2, kulkarni_nomizu, permute
from curvop.verify import (
    SUITES,
    _SUITE_IDS,
    _at_mosts,
    _closes,
    _record,
    _requires,
    check_selection,
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
    ((_, x),) = verify._trial_stream(1, 0, 0, 1)
    ((_, y),) = verify._trial_stream(2, 0, 0, 1)
    assert x.normal() != y.normal()


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nosuch")


@pytest.mark.parametrize(
    "trials, message",
    [(-3, "at least 1"), (0, "at least 1"), (2 ** 32 + 1, r"at most 2\*\*32"),
     (2.5, "an integer"), (3.0, "an integer"), ("3", "an integer")],
)
def test_run_suite_rejects_bad_trial_counts(trials, message):
    # the limits of --trials, and no silent rounding of a fractional count
    with pytest.raises(ValueError, match=message):
        run_suite("prop-1.2", trials=trials)


def test_run_suite_takes_integer_trial_counts():
    assert run_suite("prop-1.2", trials=np.int64(2)).trials == 2
    assert run_suite("prop-1.2", trials=1).trials == 1


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


# -- the per-trial generator against numpy's SeedSequence ----------------------

def reference_trial_rng(seed, suite_id, trial):
    """The per-trial generator as numpy defines it, the oracle of
    _trial_stream."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(suite_id), int(trial)))
    )


def assert_same_stream(seed, suite_id, trial):
    words = np.random.SeedSequence(entropy=seed, spawn_key=(suite_id, trial)).generate_state(4, np.uint64)
    got = verify._seed_words(seed, suite_id, trial // verify._BLOCK)[trial % verify._BLOCK]
    assert np.array_equal(got, words), (seed, suite_id, trial)
    ((_, a),) = verify._trial_stream(seed, suite_id, trial, trial + 1)
    b = reference_trial_rng(seed, suite_id, trial)
    assert np.array_equal(a.integers(0, 2 ** 63, size=3), b.integers(0, 2 ** 63, size=3))
    assert np.array_equal(a.normal(size=3), b.normal(size=3))


def same_generator(a, b):
    """Whether two generators stand at one state, compared without a draw."""
    return a.bit_generator.state == b.bit_generator.state


def reference_stream(seed, suite_id, start, stop):
    """_trial_stream as numpy defines it, one index at a time."""
    return ((index, reference_trial_rng(seed, suite_id, index)) for index in range(start, stop))


def recorded_streams(monkeypatch):
    """The trial indices that run_suite's streams hand out, in order, each
    generator checked against numpy's for its index as it is handed out."""
    stream, asked = verify._trial_stream, []

    def recorded(seed, suite_id, start, stop):
        for index, rng in stream(seed, suite_id, start, stop):
            assert same_generator(rng, reference_trial_rng(seed, suite_id, index)), (suite_id, index)
            asked.append(index)
            yield index, rng

    monkeypatch.setattr(verify, "_trial_stream", recorded)
    return asked


@pytest.mark.parametrize("start, stop", [(0, 1), (0, 255), (0, 256), (0, 257), (0, 600), (255, 513)])
def test_trial_stream_matches_seed_sequence(start, stop):
    # one block of 256 seed words, one index short of it, exactly one, one
    # index into the next, several, and a run that starts inside a block
    sid = _SUITE_IDS["lemma-2.2"]
    got = list(verify._trial_stream(7, sid, start, stop))
    assert [index for index, _ in got] == list(range(start, stop))
    for (index, rng), (_, want) in zip(got, reference_stream(7, sid, start, stop)):
        assert same_generator(rng, want), index


# block edges, both sides of index ten million, and the last index
PINNED_TRIALS = (0, 1, 255, 256, 257, 9_999_999, 10_000_000, 10_000_256, 2 ** 32 - 1)


@pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 32 + 5, 2 ** 64 + 3, 2 ** 160 + 7])
def test_trial_rng_matches_seed_sequence(seed):
    # every suite index, the entropy of one word, of several, and of more
    # words than the pool holds
    for suite_id in sorted(_SUITE_IDS.values()):
        for trial in PINNED_TRIALS:
            assert_same_stream(seed, suite_id, trial)


def test_trial_rng_out_of_order_and_after_eviction():
    verify._seed_words.cache_clear()
    sid = _SUITE_IDS["lemma-2.1-soundness"]
    order = np.random.default_rng(0).permutation(2 * verify._BLOCK + 3).tolist()
    for trial in order:
        assert_same_stream(7, sid, trial)
        assert_same_stream(7, sid, 10_000_000 + trial)
    # more blocks than the cache holds, then back to the first ones
    blocks = verify._seed_words.cache_info().maxsize + 2
    for trial in [b * verify._BLOCK + 5 for b in range(blocks)] + [3, 300]:
        assert_same_stream(7, sid, trial)
    assert verify._seed_words.cache_info().currsize <= verify._seed_words.cache_info().maxsize


def test_trial_rng_rejects_bad_seeds_and_indices():
    # a run's generators are drawn for a non-negative seed and trial
    # indices below 2**32 only, as check_selection checks them
    for trials in (2 ** 32 + 1, 2 ** 40):
        with pytest.raises(ValueError, match=r"2\*\*32"):
            check_selection(["exact-values"], trials)
    with pytest.raises(ValueError, match="non-negative"):
        check_selection(["exact-values"], seed=-1)
    with pytest.raises(ValueError, match="non-negative"):
        run_suite("prop-1.1", trials=2, seed=-1)


def test_batched_suites_reject_trials_past_their_trial_indices(monkeypatch):
    # a batched suite at k dimensions gives each trial k trial indices, so
    # at its trial limit its last index is below 2**32 and numpy's; run_all
    # checks every suite before the first one runs, and no stream starts
    limits = (("prop-1.1", 6), ("prop-2.8", 5), ("lemma-2.2", 4), ("lemma-2.1-soundness", 4))
    for name, k in limits:
        last, sid = k * (2 ** 32 // k) - 1, _SUITE_IDS[name]
        ((index, rng),) = verify._trial_stream(42, sid, last, last + 1)
        assert index == last < 2 ** 32
        assert same_generator(rng, reference_trial_rng(42, sid, last)), name
    monkeypatch.setattr(verify, "_trial_stream", None)
    monkeypatch.setattr(verify, "run_suite", None)
    for name, k in limits:
        with pytest.raises(ValueError, match=f"{name} takes at most {2 ** 32 // k} trials"):
            run_suite(name, trials=2 ** 32 // k + 1)
    with pytest.raises(ValueError, match="prop-1.1 takes at most"):
        run_all(trials=2 ** 32 // 6 + 1)


def test_trial_limits_follow_the_dims_of_each_batched_suite(monkeypatch):
    # a batched suite at k dimensions takes at most 2**32 // k trials,
    # whatever dims its row hands _batched
    dims = {}

    def recorded(stream, trials, t, suite_dims, *rest):
        dims[name] = tuple(suite_dims)
        return []

    monkeypatch.setattr(verify, "_batched", recorded)
    for name in SUITES:
        run_suite(name, trials=1)
    assert len(dims) == 8, sorted(dims)
    for name, suite_dims in dims.items():
        limit = 2 ** 32 // len(suite_dims)
        check_selection([name], limit)
        with pytest.raises(ValueError, match=f"{name} takes at most {limit} trials"):
            check_selection([name], limit + 1)


def test_each_batched_trial_draws_from_one_generator(monkeypatch):
    # trial index i of a batched suite draws from its own generator alone,
    # so each failure can be drawn again from the suite and its index
    batched, dims = verify._batched, {}

    def recorded_batched(stream, trials, t, suite_dims, *rest):
        dims[name] = len(suite_dims)
        return batched(stream, trials, t, suite_dims, *rest)

    monkeypatch.setattr(verify, "_batched", recorded_batched)
    asked = recorded_streams(monkeypatch)
    for name in SUITES:
        asked.clear()
        run_suite(name, trials=3, seed=42)
        if name in dims:
            assert asked == list(range(dims[name] * 3)), name
    assert len(dims) == 8, sorted(dims)


def test_batched_suites_reject_dims_past_the_cap(monkeypatch, capsys):
    # the dims are checked before the first draw, and the command line
    # prints the reason on one error line; at the cap the suite draws
    from curvop.cli import main

    asked = recorded_streams(monkeypatch)
    (_, draw, check), trials, tol = SUITES["lemma-2.2"]
    monkeypatch.setitem(SUITES, "lemma-2.2", (((9,), draw, check), trials, tol))
    with pytest.raises(ValueError, match="dimension 9 exceeds the cap 8"):
        run_suite("lemma-2.2", trials=5)
    assert main(["verify", "--suite", "lemma-2.2", "--trials", "5"]) == 1
    assert capsys.readouterr().err == "error: dimension 9 exceeds the cap 8\n"
    assert asked == []
    monkeypatch.setitem(SUITES, "lemma-2.2", (((8,), draw, check), trials, tol))
    assert run_suite("lemma-2.2", trials=5).passed
    assert asked == list(range(5))


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_draws_match_numpy_streams(name, monkeypatch):
    # a negative tolerance records both sides of every comparison it governs
    got = run_suite(name, trials=3, seed=42, tol=-1.0).failures
    monkeypatch.setattr(verify, "_trial_stream", reference_stream)
    assert got == run_suite(name, trials=3, seed=42, tol=-1.0).failures


# -- the batched draws' rows against numpy's calls ------------------------------

def laid_out(*fields):
    """One draw row: the fields flattened, in order, as floats."""
    return np.concatenate([np.ravel(np.asarray(field, dtype=float)) for field in fields])


def margin(rng):
    return abs(rng.normal()) if rng.uniform() < 0.5 else 0.0


def reference_row_prop_1_1(rng, n, trial, index):
    return laid_out(rng.normal(size=(n, n)))


def reference_row_prop_1_2(rng, n, trial, index):
    k = int(rng.integers(2, 5))
    lam, tt = rng.normal(size=math.comb(n, 2)), rng.normal(size=(n,) * k)
    sigma = rng.permutation(k)
    return laid_out(lam, tt, rng.normal(size=(n, n)), rng.normal(size=(n, n)), sigma)


def reference_row_prop_1_3(rng, n, trial, index):
    lam = rng.normal(size=math.comb(n, 2))
    return laid_out(lam, rng.normal(size=(n, n)))


def reference_row_prop_1_7(rng, n, trial, index):
    h = rng.normal(size=(n, n))
    return laid_out(h, rng.normal(size=math.comb(n, 2)))


def reference_row_prop_1_9(rng, n, trial, index):
    size = math.comb(n, 2)
    r = rng.normal(size=(size, size))
    which = trial % 4
    if which == 2:
        p = int(rng.integers(1, n))
        s, u = rng.normal(size=math.comb(n, p)), rng.normal(size=math.comb(n, p))
        # s and u end a slot of twice C(n, n // 2) entries
        return laid_out(r, np.zeros(2 * math.comb(n, n // 2) - 2 * s.size), s, u, p)
    shape = (n,) * int(rng.integers(1, 4)) if which == 0 else (n if which == 1 else size,) * 2
    return laid_out(r, rng.normal(size=shape), rng.normal(size=shape))


def reference_row_prop_2_8(rng, n, trial, index):
    h = rng.normal(size=(n, n))
    p = int(rng.integers(1, n))
    w = rng.normal(size=math.comb(n, p))
    size = math.comb(n, 2)
    return laid_out(h, np.zeros(math.comb(n, n // 2) - w.size), w, rng.normal(size=(size, size)), p)


def reference_row_lemma_2_2(rng, n, trial, index):
    size = math.comb(n, 2)
    lam = rng.normal(size=size)
    case = (index + 1) % 5
    if case == 0:
        return laid_out(lam, rng.normal(size=(n,) * int(rng.integers(1, 5))))
    if case == 2:
        return laid_out(lam, rng.normal(size=math.comb(n, int(rng.integers(1, n)))))
    if case == 4:
        return laid_out(lam, rng.normal(size=(n, n)), rng.normal(size=(size, size)))
    return laid_out(lam, rng.normal(size=(n, n) if case == 1 else (size, size)))


def reference_row_lemma_2_1(rng, n, trial, index):
    size = math.comb(n, 2)
    op, shared = rng.normal(size=(size, size)), rng.normal(size=(size, size))
    p = int(rng.integers(1, n))
    form = rng.normal(size=math.comb(n, p))
    margins = [margin(rng)]
    sym = rng.normal(size=(n, n))
    margins += [margin(rng), margin(rng), margin(rng)]
    return laid_out(op, shared, np.zeros(math.comb(n, n // 2) - form.size), form, sym, margins, p)


REFERENCE_ROWS = {
    "prop-1.1": reference_row_prop_1_1,
    "prop-1.2": reference_row_prop_1_2,
    "prop-1.3": reference_row_prop_1_3,
    "prop-1.7": reference_row_prop_1_7,
    "prop-1.9": reference_row_prop_1_9,
    "prop-2.8": reference_row_prop_2_8,
    "lemma-2.2": reference_row_lemma_2_2,
    "lemma-2.1-soundness": reference_row_lemma_2_1,
}


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("name", sorted(REFERENCE_ROWS))
def test_draw_rows_match_numpy_calls(name, seed):
    # each batched draw fills its row with standard_normal and random where
    # the numpy calls of one field at a time are normal and uniform: the
    # same values bit for bit, for the first 200 trials at every n
    (dims, draw, _), _, _ = SUITES[name]
    sid, trials = _SUITE_IDS[name], 200
    stream = verify._trial_stream(seed, sid, 0, len(dims) * trials)
    assert sorted(REFERENCE_ROWS) == sorted(name for name, (runs, *_) in SUITES.items() if not callable(runs))
    for n in dims:
        for trial, (index, rng) in zip(range(trials), stream):
            _, _, row = draw(rng, n, trial, index)
            want = REFERENCE_ROWS[name](reference_trial_rng(seed, sid, index), n, trial, index)
            assert row.dtype == np.float64 and row.ndim == 1, (n, index)
            assert row.tobytes() == want.tobytes(), (n, index)


@pytest.mark.parametrize("name", ["exact-values", "ode", "boundary-cases"])
def test_suites_that_never_draw_check_the_seed(name):
    # the seed is checked once a run, before the suite runs, whether the
    # suite draws or not, so a bad one is neither run nor echoed
    for seed in (1.5, -3, True, "7"):
        with pytest.raises(ValueError, match="^seed must be (an|a non-negative) integer, got "):
            run_suite(name, seed=seed)


def test_run_all_checks_the_seed_before_any_suite(monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "run_suite", lambda name, **options: ran.append(name))
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -3$"):
        run_all(seed=-3)
    assert ran == []


BAD_TOLERANCES = [math.nan, math.inf, -math.inf, True, "1e-3"]


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=["nan", "inf", "-inf", "bool", "str"])
def test_bad_tolerances_are_refused_before_any_suite(tol, monkeypatch):
    # an infinite tolerance passed every comparison, True ran at 1.0, NaN
    # failed them all, and a string raised inside the first comparison
    message = "^tol must be (finite|a real number), got "
    asked = recorded_streams(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_suite("prop-1.1", trials=5, seed=1, tol=tol)
    assert asked == []
    ran = []
    monkeypatch.setattr(verify, "run_suite", lambda name, **options: ran.append(name))
    with pytest.raises(ValueError, match=message):
        run_all(tol=tol)
    assert ran == []


@pytest.mark.parametrize("tol", [None, 0, -2, np.int64(3), 0.0, -1e-3, np.float64(1e-9)])
def test_finite_tolerances_are_taken_as_given(tol):
    assert check_selection(["prop-1.1"], 4, 7, tol) == (4, 7, tol)


# -- the batched suites against per-trial references ---------------------------

def reference_lemma_2_2(seed, trials, tol):
    """lemma-2.2 one trial at a time through the single-object calls."""
    t = tol if tol is not None else 1e-10
    sid = _SUITE_IDS["lemma-2.2"]
    count = 0
    for n in (3, 4, 5, 6):
        g = identity_sym2(n)
        for _ in range(trials):
            rng = reference_trial_rng(seed, sid, count)
            count += 1
            lam = random_so(rng, n)
            lam_sq = lam.norm_sq()
            case = count % 5
            if case == 0:
                k = int(rng.integers(1, 5))
                tt = random_tensor(rng, n, k)
                yield _at_mosts(("generic", n, count), so_act(lam, tt).norm_sq(), k * k * tt.norm_sq() * lam_sq, t)
            elif case == 1:
                h = random_sym2(rng, n)
                yield _at_mosts(
                    ("sym2", n, count),
                    so_act(lam, h).norm_sq(),
                    4.0 * h.traceless().norm_sq() * lam_sq,
                    t,
                )
            elif case == 2:
                p = int(rng.integers(1, n))
                w = random_pform(rng, n, p)
                yield _at_mosts(
                    ("pform", n, count),
                    so_act(lam, w).norm_sq(),
                    min(p, n - p) * w.norm_sq() * lam_sq,
                    t,
                )
            elif case == 3:
                r = random_sym_operator(rng, n)
                lr = act_on_operator(lam, r).norm_sq()
                yield _at_mosts(("operator", n, count), lr, 8.0 * r.traceless().norm_sq() * lam_sq, t)
                rm = tensor_from_op(r)
                lrm = so_act(lam, rm).norm_sq()
                yield _closes(("tensor-factor", n, count), lrm, 4.0 * lr, t)
                rm0 = tensor_from_op(r.traceless())
                yield _at_mosts(("tensor", n, count), lrm, 8.0 * rm0.norm_sq() * lam_sq, t)
            else:
                h = random_sym2(rng, n)
                lhs = so_act(lam, kulkarni_nomizu(g, h)).norm_sq()
                yield _at_mosts(
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
                yield _at_mosts(("kn-curv", n, count), so_act(lam, rm).norm_sq(), bound, t)


def reference_lemma_2_1_soundness(seed, trials, tol):
    """lemma-2.1-soundness one trial at a time through the single-object
    calls, each operator's eigenvalues from the suite's LAPACK call."""
    t = tol if tol is not None else 1e-10
    sid = _SUITE_IDS["lemma-2.1-soundness"]
    kinds = ("pform", "sym2", "curvature_einstein", "weyl")
    for n_index, n in enumerate((3, 4, 5, 6)):
        for trial in range(trials):
            count = n_index * trials + trial + 1
            rng = reference_trial_rng(seed, sid, count - 1)
            op = random_bianchi_operator(rng, n)
            vals = np.linalg.eigvalsh(op.mat)
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
                    gg = kulkarni_nomizu(identity_sym2(n), identity_sym2(n)).array
                    tt = CurvTensor(shared.scal / (2.0 * (n - 1) * n) * gg + shared.weyl.array)
                else:
                    kind = TensorKind.weyl()
                    tt = shared.weyl
                c = estimate_constant(kind, n)
                margin = abs(rng.normal()) if rng.uniform() < 0.5 else 0.0
                kappa = min(0.0, float(_apply_rule("lemma-2.1", vals, n, c)[2])) - margin
                _, low, bound, holds, vanishing = _apply_rule("lemma-2.1", vals, n, c, kappa)
                yield _requires((("holds", kind_name), n, count), bool(holds))
                # the direct checks allow t where direct_term_check allows
                # its own slack
                lhs, rhs, _ = direct_term_check(op, tt, kappa)
                ok = lhs >= rhs - t * max(1.0, abs(lhs), abs(rhs))
                yield _requires((("direct", kind_name), n, count), ok, lhs, rhs, t)
                lhs2, rhs2, _ = direct_term_check(op, tt, min(0.0, float(bound)))
                ok2 = lhs2 >= rhs2 - t * max(1.0, abs(lhs2), abs(rhs2))
                yield _requires((("direct-tight", kind_name), n, count), ok2, lhs2, rhs2, t)
                if vanishing:
                    hat_sq = hat_norm_sq(tt)
                    floor_bound = float(low) / c * hat_sq
                    yield _at_mosts((("positive", kind_name), n, count), floor_bound, lhs, t)


def reference_prop_1_1(seed, trials, tol):
    """prop-1.1 one trial at a time through the single-object calls."""
    t = tol if tol is not None else 1e-10
    sid = _SUITE_IDS["prop-1.1"]
    for index in range(6 * trials):
        rng = reference_trial_rng(seed, sid, index)
        n = 3 + index // trials
        h = random_sym2(rng, n)
        lhs = kulkarni_nomizu(identity_sym2(n), h).norm_sq()
        rhs = 4.0 * (n - 2) * h.norm_sq() + 4.0 * h.trace() ** 2
        yield _closes(("kn-norm", n, index + 1), lhs, rhs, t)


def reference_prop_1_2(seed, trials, tol):
    """prop-1.2 one trial at a time through the single-object calls."""
    t = tol if tol is not None else 1e-12
    sid = _SUITE_IDS["prop-1.2"]
    count = 0
    for n in range(3, 8):
        for _ in range(trials):
            rng = reference_trial_rng(seed, sid, count)
            count += 1
            k = int(rng.integers(2, 5))
            lam = random_so(rng, n)
            tt = random_tensor(rng, n, k)
            sigma = tuple(rng.permutation(k))
            left = so_act(lam, permute(tt, sigma))
            right = permute(so_act(lam, tt), sigma)
            yield _closes(("permute", n, count), float(np.abs(left.array - right.array).max()), 0.0, t)
            s, u = random_sym2(rng, n), random_sym2(rng, n)
            lhs = so_act(lam, op_from_tensor(kulkarni_nomizu(s, u)))
            rhs = (
                op_from_tensor(kulkarni_nomizu(so_act(lam, s), u)).mat
                + op_from_tensor(kulkarni_nomizu(s, so_act(lam, u))).mat
            )
            yield _closes(("leibniz", n, count), float(np.abs(lhs.mat - rhs).max()), 0.0, t)


def reference_prop_1_3(seed, trials, tol):
    """prop-1.3 one trial at a time through the single-object calls."""
    t = tol if tol is not None else 1e-12
    sid = _SUITE_IDS["prop-1.3"]
    count = 0
    for n in range(3, 8):
        for _ in range(trials):
            rng = reference_trial_rng(seed, sid, count)
            count += 1
            lam = random_so(rng, n)
            h = random_sym2(rng, n)
            yield _closes(("trace", n, count), so_act(lam, h).trace(), 0.0, t)
            yield _closes(("metric", n, count), so_act(lam, identity_sym2(n)).norm_sq(), 0.0, t)


def reference_prop_1_7(seed, trials, tol):
    """prop-1.7 one trial at a time through the single-object calls, each
    matrix decomposed by the suite's LAPACK call."""
    t = tol if tol is not None else 1e-9
    sid = _SUITE_IDS["prop-1.7"]
    for n_index, n in enumerate(range(3, 8)):
        for trial in range(trials):
            count = n_index * trials + trial + 1
            rng = reference_trial_rng(seed, sid, count - 1)
            h, lam = random_sym2(rng, n), random_so(rng, n)
            lhs = so_act(lam, h).norm_sq()
            vals, vecs = np.linalg.eigh(h.mat)
            gram = vecs.T @ lam.matrix() @ vecs
            rhs = float(np.sum((vals[:, None] - vals[None, :]) ** 2 * gram * gram))
            yield _closes(("eigen-norm", n, count), lhs, rhs, t)
            spread = float(vals[-1] - vals[0])
            yield _at_mosts(("spread-bound", n, count), lhs, 2.0 * spread ** 2 * lam.norm_sq(), t)
            hat_sq = hat_norm_sq(h)
            yield _closes(("hat-norm", n, count), hat_sq, 2.0 * n * h.norm_sq() - 2.0 * h.trace() ** 2, t)
            yield _closes(("hat-traceless", n, count), hat_sq, 2.0 * n * h.traceless().norm_sq(), t)


def reference_prop_1_9(seed, trials, tol):
    """prop-1.9 one trial at a time through the single-object calls, the
    curvature tensors on their operators as the suite checks them: Ric_R
    commutes with A -> A_op, and <A, B> = 4 <A_op, B_op>."""
    t = tol if tol is not None else 1e-10
    sid = _SUITE_IDS["prop-1.9"]
    count = 0
    for n in range(3, 8):
        for trial in range(trials):
            rng = reference_trial_rng(seed, sid, count)
            count += 1
            r = random_sym_operator(rng, n)
            which = trial % 4
            if which == 0:
                k = int(rng.integers(1, 4))
                s, u = random_tensor(rng, n, k), random_tensor(rng, n, k)
            elif which == 1:
                s, u = random_sym2(rng, n), random_sym2(rng, n)
            elif which == 2:
                p = int(rng.integers(1, n))
                s, u = random_pform(rng, n, p), random_pform(rng, n, p)
            else:
                s, u = random_sym_operator(rng, n), random_sym_operator(rng, n)
                lhs = 4.0 * float(np.sum(ric_of(r, s).mat * u.mat))
                yield _closes(("adjoint", n, count), lhs, 4.0 * curvature_term(r, s, u), t)
                continue
            lhs = inner(ric_of(r, s), u)
            rhs = curvature_term(r, s, u)
            yield _closes(("adjoint", n, count), lhs, rhs, t)


def reference_prop_2_8(seed, trials, tol):
    """prop-2.8 one trial at a time through the single-object calls, the
    curvature tensor's identities on its operator as the suite checks them:
    Ric_I commutes with Rm -> Rm_op, and |hat Rm|^2 = 4 |hat R_op|^2."""
    t = tol if tol is not None else 1e-9
    sid = _SUITE_IDS["prop-2.8"]
    count = 0
    for n in range(3, 8):
        ident = identity_operator(n)
        g = identity_sym2(n)
        for _ in range(trials):
            rng = reference_trial_rng(seed, sid, count)
            count += 1
            h = random_sym2(rng, n)
            got = ric_of(ident, h)
            want = 2.0 * n * h.traceless().mat
            yield _closes(("sym2", n, count), float(np.abs(got.mat - want).max()), 0.0, t)
            p = int(rng.integers(1, n))
            w = random_pform(rng, n, p)
            got_w = ric_of(ident, w)
            yield _closes(("pform", n, count), float(np.abs(got_w.comps - p * (n - p) * w.comps).max()), 0.0, t)
            yield _closes(("pform-hat", n, count), hat_norm_sq(w), p * (n - p) * w.norm_sq(), t)
            rb = random_bianchi_operator(rng, n)
            ric = Sym2(np.einsum("iaja->ij", tensor_from_op(rb).array))
            scal = float(np.trace(ric.mat))
            got_rb = ric_of(ident, rb)
            want_rb = 4.0 * (n - 1) * rb.mat - 2.0 * op_from_tensor(kulkarni_nomizu(g, ric)).mat
            yield _closes(("curv", n, count), float(np.abs(got_rb.mat - want_rb).max()), 0.0, t)
            ric0 = ric.traceless()
            hat_rb = hat_norm_sq(rb)
            rm0_sq = 4.0 * rb.norm_sq() - scal ** 2 / (2.0 * (n - 1) * n) * 4.0
            yield _closes(("hat-rm", n, count), 4.0 * hat_rb, 4.0 * (n - 1) * rm0_sq - 8.0 * ric0.norm_sq(), t)
            r0_sq = rb.traceless().norm_sq()
            yield _closes(("hat-op", n, count), hat_rb, 4.0 * (n - 1) * r0_sq - 2.0 * ric0.norm_sq(), t)


def assert_same_failures(got, want):
    assert [f.digest for f in got] == [f.digest for f in want]
    for a, b in zip(got, want):
        assert a.tolerance == b.tolerance
        for x, y in ((a.lhs, b.lhs), (a.rhs, b.rhs)):
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y))


REFERENCES = {
    "prop-1.1": (reference_prop_1_1, 20),
    "lemma-2.2": (reference_lemma_2_2, 25),
    "lemma-2.1-soundness": (reference_lemma_2_1_soundness, 20),
    "prop-1.2": (reference_prop_1_2, 12),
    "prop-1.3": (reference_prop_1_3, 12),
    "prop-1.7": (reference_prop_1_7, 12),
    "prop-1.9": (reference_prop_1_9, 16),
    "prop-2.8": (reference_prop_2_8, 8),
}


# a tolerance at which some comparisons of each suite fail and others pass:
# at 0 an equality passes only where its sides agree exactly; every
# comparison of lemma-2.1-soundness is an inequality that holds at 0, and
# at -1e-3 those with a margin under 1e-3 of their scale fail
MIXED_TOLERANCES = dict.fromkeys(REFERENCES, 0.0) | {"lemma-2.1-soundness": -1e-3}


@pytest.mark.parametrize("seed", [3, 42, 77])
@pytest.mark.parametrize("tol", [None, -1.0, "mixed"])
@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_batched_suite_matches_per_trial_reference(name, tol, seed, monkeypatch):
    # a negative tolerance fails every comparison it governs, so the
    # failure lists are long and their order is checked; the small budget
    # splits every group into several chunks; a mixed tolerance leaves
    # groups in which some checks fail and others pass
    reference, trials = REFERENCES[name]
    mixed = tol == "mixed"
    if mixed:
        tol = MIXED_TOLERANCES[name]
    want = _record(reference(seed, trials, tol))
    assert_same_failures(run_suite(name, trials=trials, seed=seed, tol=tol).failures, want)
    monkeypatch.setattr(verify, "_CHUNK_BYTES", 1 << 13)
    assert_same_failures(run_suite(name, trials=trials, seed=seed, tol=tol).failures, want)
    if tol is not None:
        assert want
    if mixed:
        assert len(want) < len(_record(reference(seed, trials, -1.0)))


@pytest.mark.parametrize(
    "name, trials",
    [("lemma-2.2", 50), ("lemma-2.1-soundness", 20), ("prop-2.8", 8), ("prop-1.9", 40), ("prop-1.2", 40)],
)
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


def patch_check(monkeypatch, name, replacement):
    """Run the batched suite name with replacement as the check of its row;
    returns the check it replaces."""
    (dims, draw, check), trials, tol = SUITES[name]
    monkeypatch.setitem(SUITES, name, ((dims, draw, replacement), trials, tol))
    return check


def counted_checks(monkeypatch, name):
    """(n, key, group size) of every call of the batched suite name's check."""
    calls = []

    def counted(t, n, key, *arrays):
        calls.append((n, key, len(arrays[0])))
        return check(t, n, key, *arrays)

    check = patch_check(monkeypatch, name, counted)
    return calls


def test_groups_are_keyed_by_shape(monkeypatch):
    # at 20 trials per n everything of one shape fits the default budget:
    # prop-1.2 checks each (n, k) in one group, whatever the permutations,
    # and prop-2.8 the forms of every degree together at n = 3 and 4
    calls = counted_checks(monkeypatch, "prop-1.2")
    assert run_suite("prop-1.2", trials=20, seed=42).passed
    assert len({(n, k) for n, k, _ in calls}) == len(calls)
    assert sum(size for *_, size in calls) == 5 * 20
    calls = counted_checks(monkeypatch, "prop-2.8")
    assert run_suite("prop-2.8", trials=20, seed=42).passed
    assert [size for n, _, size in calls if n in (3, 4)] == [20, 20]
    assert sum(size for *_, size in calls) == 5 * 20
    # prop-2.8's groups are sized by the operator's block rows, so its
    # n = 6 and n = 7 trials share groups too
    sizes = {n: [size for m, _, size in calls if m == n] for n in (6, 7)}
    assert max(sizes[6]) > 1 and len(sizes[6]) <= 2, sizes
    assert max(sizes[7]) > 1 and len(sizes[7]) <= 4, sizes
    # prop-1.9's curvature kind too: its 10 trials at n = 7 take two groups
    calls = counted_checks(monkeypatch, "prop-1.9")
    assert run_suite("prop-1.9", trials=40, seed=42).passed
    assert [size for n, (which, _), size in calls if n == 7 and which == 3] == [7, 3]
    # lemma-2.2 sizes each case by its own shapes: at 400 trials per n its
    # symmetric tensors, and its forms of each degree, take one group per n
    calls = counted_checks(monkeypatch, "lemma-2.2")
    assert run_suite("lemma-2.2", trials=400, seed=42).passed
    assert sum(size for *_, size in calls) == 4 * 400
    for case in (1, 2):
        keys = [(n, key) for n, key, _ in calls if key[0] == case]
        assert len(keys) == len(set(keys)), case


@pytest.mark.parametrize("name", sorted(REFERENCE_ROWS))
def test_one_item_size_per_group_key(name):
    # _batched closes a group when one more trial at the last trial's
    # item_bytes would pass the budget, so every trial of an (n, key) must
    # name the same size; prop-1.9's forms of every degree share a key
    (dims, draw, _), _, _ = SUITES[name]
    stream = verify._trial_stream(1, _SUITE_IDS[name], 0, len(dims) * 400)
    for n in dims:
        sizes = {}
        for trial, (index, rng) in zip(range(400), stream):
            key, item_bytes, _ = draw(rng, n, trial, index)
            sizes.setdefault(key, set()).add(item_bytes)
        assert all(len(named) == 1 for named in sizes.values()), (n, sizes)


def traced_peak(fn, *args):
    """The traced peak of fn(*args), after one untraced call that fills the
    caches."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lemma_2_2_groups_peak_within_the_budget():
    # every key's full group at n = 3..6, as many trials as _batched
    # gathers at the key's item_bytes, stacking included, peaks at most
    # _CHUNK_BYTES above a group of one trial: each case names at least what
    # a trial adds to its check's traced peak, case 3 too (at 4 * 8 * n^4
    # bytes a trial its full groups grew past the budget at every n)
    (_, draw, check), _, tol = SUITES["lemma-2.2"]
    for n in (3, 4, 5, 6):
        keys = 4 + 1 + (n - 1) + 1 + 1
        rows, full = {}, {}
        for index, rng in verify._trial_stream(1, _SUITE_IDS["lemma-2.2"], 0, 40_000):
            key, item_bytes, row = draw(rng, n, index, index)
            full[key] = verify._CHUNK_BYTES // item_bytes
            group = rows.setdefault(key, [])
            if len(group) < full[key]:
                group.append(row)
            elif len(rows) == keys and all(len(rows[key]) == full[key] for key in rows):
                break

        def run(key, group):
            return check(tol, n, key, np.array(group))

        assert len(rows) == keys, n
        for key, group in rows.items():
            assert len(group) == full[key], (n, key)
            growth = traced_peak(run, key, group) - traced_peak(run, key, group[:1])
            assert growth <= verify._CHUNK_BYTES, (n, key, growth)


@pytest.mark.parametrize("name", ["prop-2.8", "prop-1.9", "lemma-2.1-soundness"])
def test_block_rows_stay_within_the_budget(name, monkeypatch):
    # prop-2.8, prop-1.9 and lemma-2.1-soundness take their curvature kinds
    # on operator coordinates, N^3 entries a trial, and build no
    # (0,4)-tensor's block rows (403 kB at n = 7)
    from curvop import action

    block_rows, built = action._block_rows, []

    def recorded(values, n, p, k):
        rows = block_rows(values, n, p, k)
        built.append((n, p, k, rows.nbytes))
        return rows

    monkeypatch.setattr(action, "_block_rows", recorded)
    assert run_suite(name, trials=20, seed=42).passed
    shapes = {(n, p, k) for n, p, k, _ in built}
    assert not any(p == 1 and k == 4 for _, p, k in shapes), shapes
    assert shapes >= {(6, 2, 2)}
    assert max(size for *_, size in built) <= verify._CHUNK_BYTES, max(built, key=lambda row: row[-1])


def test_lemma_2_2_acts_on_no_decomposed_tensor(monkeypatch):
    # kn and kn-curv take |L A|^2 as 4 |L A_op|^2 on operator coordinates,
    # so the only action on curvature tensors left is case 3's on the
    # tensors of its operators for tensor-factor; case 0 acts on generic
    # (0,k)-tensors
    from curvop import action

    act, acted = action._act, []

    def recorded(comps, values, n, p, k):
        acted.append((p, k))
        return act(comps, values, n, p, k)

    groups = []

    def counted(t, n, key, *arrays):
        start = len(acted)
        checks = check(t, n, key, *arrays)
        groups.append((key, acted[start:]))
        return checks

    monkeypatch.setattr(action, "_act", recorded)
    check = patch_check(monkeypatch, "lemma-2.2", counted)
    assert run_suite("lemma-2.2", trials=20, seed=42).passed
    want = {
        0: lambda k: [(1, k)],
        1: lambda _: [(1, 2)],
        2: lambda p: [(p, 1)],
        3: lambda _: [(2, 2), (1, 4)],
        4: lambda _: [(2, 2), (2, 2)],
    }
    assert {case for (case, _), _ in groups} == set(want)
    for (case, degree), calls in groups:
        assert calls == want[case](degree), (case, degree, calls)


def test_inequality_checks_spread_no_operator_to_a_tensor(monkeypatch):
    # lemma-2.1-soundness and lemma-2.2's case 4 decompose, multiply and act
    # on operator coordinates: with every binding of the spread to
    # (0,4)-arrays refusing, both still run.  Case 3's tensor checks are
    # claims about (0,4)-tensors and keep the spread
    from curvop import tensors

    spread, refusing = tensors._tensors_from_ops, [False]

    def guarded(mats, n):
        if refusing[0]:
            raise AssertionError("an operator matrix was spread to a (0,4)-array")
        return spread(mats, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("curvop") and hasattr(module, "_tensors_from_ops"):
            monkeypatch.setattr(module, "_tensors_from_ops", guarded)
    cases = []

    def refused_in_case_4(t, n, key, *arrays):
        cases.append(key[0])
        refusing[0] = key[0] == 4
        try:
            return check(t, n, key, *arrays)
        finally:
            refusing[0] = False

    check = patch_check(monkeypatch, "lemma-2.2", refused_in_case_4)
    assert run_suite("lemma-2.2", trials=20, seed=42).passed
    assert 3 in cases and 4 in cases
    refusing[0] = True
    assert run_suite("lemma-2.1-soundness", trials=5).passed
    # the guard is live: prop-1.1's claim is about the (0,4)-tensor
    # KN(g, h), so it spreads its operators
    with pytest.raises(AssertionError, match="spread"):
        run_suite("prop-1.1", trials=1)


@pytest.mark.parametrize("name", ["prop-1.7", "prop-2.8", "prop-1.9", "prop-1.2", "prop-1.3"])
def test_identity_suites_spread_no_operator_to_a_tensor(name, monkeypatch):
    # the identity suites check their curvature tensors on operator
    # matrices: prop-1.2 the Leibniz rule for Kulkarni-Nomizu products,
    # prop-2.8 Ric_I and the hat norm, prop-1.9 the Ricci pairing (its
    # fourth trial per n).  So each runs with every binding of the spread
    # to (0,4)-arrays refusing
    def refused(mats, n):
        raise AssertionError("an operator matrix was spread to a (0,4)-array")

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("curvop") and hasattr(module, "_tensors_from_ops"):
            monkeypatch.setattr(module, "_tensors_from_ops", refused)
    assert run_suite(name, trials=5).passed


def test_hat_structure_gaps_carry_no_cancellation_residue():
    # trial 737 at seed 2 pairs a hat with its own action; the expanded
    # squared gap |a|^2 - 2<a, b> + |b|^2 left 1.4e-12 there, above 1e-12
    assert run_suite("hat-structure", trials=738, seed=2).passed


def test_direct_checks_follow_the_tolerance():
    # the direct checks compare at the suite's tolerance, so a negative one
    # fails them like every other comparison
    report = run_suite("lemma-2.1-soundness", trials=3, seed=42, tol=-1.0)
    tags = {
        verify._digest((name, kind), n, n_index * 3 + trial + 1): name
        for name in ("direct", "direct-tight")
        for n_index, n in enumerate((3, 4, 5, 6))
        for trial in range(3)
        for kind in ("pform", "sym2", "curvature_einstein", "weyl")
    }
    failed = {tags[f.digest] for f in report.failures if f.digest in tags}
    assert failed == {"direct", "direct-tight"}
    assert {f.tolerance for f in report.failures} == {-1.0}
    assert run_suite("lemma-2.1-soundness", trials=3, seed=42).passed


def test_former_fixed_slacks_follow_the_tolerance():
    # each of these compares at its suite's tolerance, which --tol sets, so a
    # negative one fails them all
    tags = {
        "decompose": [("hat-identity", trial) for trial in range(3)],
        "spectrum": [("conjugation", trial) for trial in range(3)],
        "boundary-cases": [("neg-lowest", n, scale) for n in (4, 5, 6) for scale in (1.0, 2.5)],
        "singer-thorpe": [("cp2-maximal", idx) for idx in range(6)]
        + [("diagonal-bound", trial) for trial in range(3)],
        "ode": [("fixed-point", n) for n in range(4, 9)] + [("time-reversal",)],
    }
    assert sum(map(len, tags.values())) == 27
    for name, suite_tags in tags.items():
        failed = {f.digest for f in run_suite(name, trials=3, seed=42, tol=-1.0).failures}
        assert {verify._digest(*tag) for tag in suite_tags} <= failed, name


def _nudged(fn):
    """fn with its result moved one ulp up."""
    return lambda *args: float(np.nextafter(fn(*args), math.inf))


def test_remark_term_is_exact(monkeypatch):
    # both sides are -2592 bit for bit, so a term one ulp off fails
    monkeypatch.setattr(verify, "curvature_term", _nudged(curvature_term))
    failed = {f.digest for f in run_suite("boundary-cases").failures}
    assert verify._digest("remark-term") in failed


def test_real_pairs_are_exact(monkeypatch):
    # e_i ^ e_j has one wedge coordinate, 1, so the complex sectional
    # curvature of a real pair is the operator entry bit for bit
    monkeypatch.setattr(verify, "complex_sectional", _nudged(verify.complex_sectional))
    failed = {f.digest for f in run_suite("complex-sectional", trials=3, seed=42).failures}
    assert {verify._digest("real-pair", trial) for trial in range(3)} <= failed


def test_cp2_isotropic_value_is_exact(monkeypatch):
    # on z = e0 + i e1 and w = e2 + i e3 cp2's complex sectional curvature is
    # 12 bit for bit, so a value one ulp off fails
    monkeypatch.setattr(verify, "complex_sectional", _nudged(verify.complex_sectional))
    failed = {f.digest for f in run_suite("complex-sectional", trials=1, seed=42).failures}
    assert verify._digest("cp2-isotropic") in failed


def test_every_failure_reports_the_tolerance_it_ran_at():
    # every comparison that --tol governs compares at it, so each failure
    # at a negative tolerance reports that tolerance, not a scaled or
    # folded one
    wrong = [(r.suite, f.digest, f.tolerance) for r in run_all(trials=3, seed=42, tol=-1.0)
             for f in r.failures if f.tolerance != -1.0]
    assert wrong == []


def test_extremal_pform_catches_a_sign_flipped_action(monkeypatch):
    # the pairs are written for the library's sign convention, not built
    # through the action, so an action of the opposite sign fails L w1 = -p w2
    act = action._act
    monkeypatch.setattr(action, "_act", lambda *args: -act(*args))
    failed = {f.digest for f in run_suite("extremal-pform").failures}
    assert {verify._digest("first", p) for p in (1, 2, 3, 4)} <= failed


def test_sharp_pairs_cover_every_kind_once():
    # the pairs sharpness checked before they came from one list, each at
    # its n: sym2 from n = 3, the p-forms at n = 2p and at every n > 2p, the
    # generic kinds from n = 3 and the curvature kinds from n = 4
    before = [("sym2", n) for n in range(3, 9)] + [("pform", p, 2 * p) for p in (1, 2, 3, 4)]
    before += [("pform", p, n) for n in range(3, 9) for p in range(1, (n + 1) // 2)]
    before += [("generic", k, n) for k in (1, 2, 3, 4) for n in range(3, 9)]
    before += [(name, n) for n in range(4, 9) for name in ("weyl", "curvature_einstein")]
    tags = [tag for tag, *_ in verify._sharp_pairs()]
    assert len(tags) == len(set(tags)) == 57
    assert set(before) <= set(tags)


@pytest.mark.parametrize("factor", [1.2, 1 / 1.2, 1.05])
def test_sharpness_reads_the_library_constants(monkeypatch, factor):
    # every sharp pair meets its kind's constant with equality, so a constant
    # that is off by any factor fails that pair's check
    constant = verify.estimate_constant
    monkeypatch.setattr(verify, "estimate_constant", lambda kind, n: factor * constant(kind, n))
    failed = {f.digest for f in run_suite("lemma-2.2-sharpness").failures}
    assert failed == {verify._digest("constant", *tag) for tag, *_ in verify._sharp_pairs()}


def test_sharpness_reads_the_weight_norms(monkeypatch):
    # every sharp pair, and the Singer-Thorpe pair, meets |lam|^2 with
    # equality; the constants are read from bochner and stay
    weight_norms = verify._weight_norms

    def scaled(kind, n):
        cas, norm_sq = weight_norms(kind, n)
        return cas, 1.2 * norm_sq

    monkeypatch.setattr(verify, "_weight_norms", scaled)
    failed = {f.digest for f in run_suite("lemma-2.2-sharpness").failures}
    tags = [("factor", *tag) for tag, *_ in verify._sharp_pairs()] + [("curv-equality",)]
    assert failed == {verify._digest(*tag) for tag in tags}


def test_boundary_cases_read_the_lemma_2_1_count(monkeypatch):
    # each designed spectrum averages exactly -1 over its lowest floor(C)
    # eigenvalues and -2 over fewer, so a count of floor(C) - 1 fails it
    count_of, on_average = bochner._RULES["lemma-2.1"]
    monkeypatch.setitem(bochner._RULES, "lemma-2.1", (lambda n, c: count_of(n, c) - 1, on_average))
    tags = [("pform", p, n) for n in range(4, 9) for p in range(1, n // 2 + 1)]
    tags += [("sym2", None, n) for n in range(4, 9)] + [("weyl", None, n) for n in range(5, 9)]
    failed = {f.digest for f in run_suite("boundary-cases").failures}
    assert failed == {verify._digest("lemma21-count", *tag) for tag in tags}
    assert len(tags) == 23


def test_boundary_cases_catch_a_loose_bianchi_certificate(monkeypatch):
    # the near-Bianchi operator's largest sum, 5e-11, certifies at 1e-9
    monkeypatch.setattr(operators, "_IDENTITY_TOL", 1e-9)
    failed = {f.digest for f in run_suite("boundary-cases").failures}
    assert failed == {verify._digest("near-bianchi")}


def test_boundary_cases_catch_a_loose_direct_slack(monkeypatch):
    # R = -I meets kappa = -1 on e0^e1 exactly and misses -1 + 1e-8 by 4e-8,
    # which a slack of 1e-6 forgives
    monkeypatch.setattr(bochner, "_DIRECT_SLACK", 1e-6)
    failed = {f.digest for f in run_suite("boundary-cases").failures}
    assert failed == {verify._digest("direct-slack")}


def test_exact_values_pin_the_betti_bound(monkeypatch):
    # p (n - p + 1) in the exponent in place of p (n - p) moves the bound
    # off 6 e^2
    def bound(n, p, kappa, diameter, c_const):
        return math.comb(n, p) * math.exp(c_const * math.sqrt(-kappa * diameter ** 2 * p * (n - p + 1)))

    monkeypatch.setattr(verify, "betti_bound", bound)
    failed = {f.digest for f in run_suite("exact-values").failures}
    assert failed == {verify._digest("betti-bound")}


# the tolerance each suite runs at when none is given
DEFAULT_TOLERANCES = {
    "exact-values": 1e-12, "prop-1.1": 1e-10, "tensor-core": 1e-12, "prop-1.2": 1e-12,
    "prop-1.3": 1e-12, "prop-1.6": 1e-9, "prop-1.7": 1e-9, "prop-1.9": 1e-10, "prop-2.8": 1e-9,
    "ric-closed-form": 1e-12, "hat-closed-form": 0.0, "hat-structure": 1e-12,
    "basis-independence": 1e-9, "bianchi-split": 1e-12, "decompose": 1e-12, "spectrum": 1e-10,
    "lemma-2.2": 1e-10, "lemma-2.2-sharpness": 1e-12, "estimate-constants": 1e-10,
    "lemma-2.1-soundness": 1e-10, "boundary-cases": 1e-12, "singer-thorpe": 1e-15,
    "fourdim-einstein": 1e-9, "normal-h": 1e-9, "extremal-pform": 0.0,
    "complex-sectional": 1e-9, "warped-round": 1e-12, "warped-perturbed": 1e-12, "ode": 1e-8,
    "serialization": None,
}


def test_suite_default_tolerances():
    assert {name: tol for name, (_, _, tol) in SUITES.items()} == DEFAULT_TOLERANCES


@pytest.mark.parametrize("name", ["prop-1.1", "lemma-2.2", "serialization"])
def test_run_suite_hands_the_default_or_the_given_tolerance(name, monkeypatch):
    fn, trials, default = SUITES[name]
    seen = []
    monkeypatch.setitem(SUITES, name, (lambda stream, t: seen.append(t) or [], trials, default))
    run_suite(name, trials=1)
    run_suite(name, trials=1, tol=-1.0)
    run_suite(name, trials=1, tol=0.0)
    assert seen == [DEFAULT_TOLERANCES[name], -1.0, 0.0]


def reports_hash(reports):
    """A hash of each report's suite, trial count and failure digests and
    tolerances, in order; lhs and rhs are left out, so ulps do not move it."""
    rows = [(r.suite, r.trials, [(f.digest, f.tolerance) for f in r.failures]) for r in reports]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# reports_hash of run_all(trials=3, seed=42), with and without tol=-1.0
DEFAULT_HASH = "190b4388ce16c6f7936fabc1a63ee42fc5a8901ab788da37e2d66f4459e8dac5"
FAILING_HASH = "e426c24f37bfa184dea1bef9a528e57351570185b618e22835e22e77ccf7607f"


def test_reports_are_pinned():
    # any change to a draw, a tag, a check's order, a tolerance or a trial
    # count of any suite moves one of these
    assert reports_hash(run_all(trials=3, seed=42)) == DEFAULT_HASH
    assert reports_hash(run_all(trials=3, seed=42, tol=-1.0)) == FAILING_HASH
