"""Randomized and exact verification suites behind the command line.

Every suite draws its randomness through one counter-based scheme: the
per-trial generator is seeded by (seed, suite index, trial index), so runs
are reproducible, order-independent, and identical whether trials run
serially or in parallel.  A suite returns the list of failures; a failure
records a digest of the offending inputs together with both sides of the
violated comparison and the tolerance used.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from .action import (
    SoElement,
    ad_matrix,
    act_on_operator,
    curvature_term,
    hat,
    hat_norm_sq,
    ric_identity_closed_form,
    ric_of,
    so_act,
    _block_rows,
)
from .bochner import (
    TensorKind,
    betti_verdict,
    direct_term_check,
    estimate_constant,
    fourdim_einstein_term,
    lemma21_verdict,
    normal_h_term,
    normal_h_tensor,
    tachibana_verdict,
)
from .catalog import (
    cp2_op,
    extremal_pform,
    negative_2form_term_op,
    negative_sym2_term_op,
    product_of_spheres_op,
    singer_thorpe_basis,
    singer_thorpe_op,
    small_extremals,
    sphere_product_op,
)
from .opfile import dumps_operator, loads_operator
from .operators import (
    CurvatureOperator,
    Spectrum,
    bianchi_split,
    complex_sectional,
    decompose,
    identity_operator,
    jacobi_eigh,
    jacobi_eigh_batch,
    ricci_contract,
    spectrum,
    tensor_from_op,
)
from .tensors import (
    CurvTensor,
    PForm,
    Sym2,
    Tensor0k,
    identity_sym2,
    inner,
    kulkarni_nomizu,
    permute,
    wedge_basis_form,
    wedge_count,
    wedge_index,
    wedge_pairs,
)
from .warped import (
    dwp_eigenvalue_list,
    dwp_eigenvalues,
    dwp_operator,
    integrate_warp_ode,
    ode_shoot,
    perturbed_profile,
    round_jet,
    trajectory_scal,
)


@dataclass(frozen=True)
class Failure:
    digest: str
    lhs: float
    rhs: float
    tolerance: float

    def to_document(self):
        return {
            "inputs-digest": self.digest,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tolerance": self.tolerance,
        }


@dataclass
class Report:
    suite: str
    trials: int
    failures: list
    seed: int
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_document(self):
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "failures": [f.to_document() for f in self.failures],
            "wall-time": self.wall_time,
        }


def _trial_rng(seed, suite_id, trial):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(suite_id), int(trial)))
    )


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:12]


def _close(failures, tag, lhs, rhs, tol):
    scale = max(1.0, abs(lhs), abs(rhs))
    if not abs(lhs - rhs) <= tol * scale:
        failures.append(Failure(_digest(*tag), float(lhs), float(rhs), tol))


def _at_most(failures, tag, lhs, rhs, tol):
    scale = max(1.0, abs(lhs), abs(rhs))
    if not lhs <= rhs + tol * scale:
        failures.append(Failure(_digest(*tag), float(lhs), float(rhs), tol))


def _require(failures, tag, condition, lhs=0.0, rhs=0.0, tol=0.0):
    if not condition:
        failures.append(Failure(_digest(*tag), float(lhs), float(rhs), tol))


# -- random draws -------------------------------------------------------------

def random_sym2(rng, n) -> Sym2:
    a = rng.normal(size=(n, n))
    return Sym2((a + a.T) / 2.0)


def random_tensor(rng, n, k) -> Tensor0k:
    return Tensor0k(rng.normal(size=(n,) * k))


def random_pform(rng, n, p) -> PForm:
    return PForm(n, p, rng.normal(size=math.comb(n, p)))


def random_so(rng, n) -> SoElement:
    return SoElement(n, rng.normal(size=wedge_count(n)))


def random_sym_operator(rng, n) -> CurvatureOperator:
    m = rng.normal(size=(wedge_count(n),) * 2)
    return CurvatureOperator(n, (m + m.T) / 2.0)


def random_bianchi_operator(rng, n) -> CurvatureOperator:
    return bianchi_split(random_sym_operator(rng, n))[0]


def _einstein_part(dec) -> CurvTensor:
    """The Einstein part scal/(2(n-1)n) KN(g, g) + W of a decomposition."""
    n = dec.weyl.n
    g = identity_sym2(n)
    scal_part = dec.scal / (2.0 * (n - 1) * n) * kulkarni_nomizu(g, g).array
    return CurvTensor(scal_part + dec.weyl.array)


def random_orthogonal(rng, m) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    return q * np.sign(np.diag(r))


def random_normal_matrix(rng, n) -> np.ndarray:
    """Normal endomorphism from rotation-scale blocks in a random frame."""
    blocks = np.zeros((n, n))
    i = 0
    while i + 1 < n:
        s, t = rng.normal(size=2)
        blocks[i, i] = blocks[i + 1, i + 1] = s
        blocks[i, i + 1] = -t
        blocks[i + 1, i] = t
        i += 2
    if i < n:
        blocks[i, i] = rng.normal()
    q = random_orthogonal(rng, n)
    return q @ blocks @ q.T


# -- closed-form oracle for hats of wedge basis forms -------------------------

def hat_wedge_closed_form(n, idx) -> np.ndarray:
    """Combinatorial expansion of the hat of a wedge basis form.

    Row alpha holds the compact components of the alpha-th block.  Replacing
    a member a of the index set by an outside index k through e_a^e_k picks
    up (-1)^c with c the number of members strictly between them, negated
    when a is the larger of the two.  Pure combinatorics, no action code.
    """
    idx = tuple(idx)
    p = len(idx)
    from .tensors import _tuple_index_map

    index_map = _tuple_index_map(n, p)
    rows = np.zeros((wedge_count(n), math.comb(n, p)))
    members = set(idx)
    for element in idx:
        for k in range(n):
            if k in members:
                continue
            a, b = min(element, k), max(element, k)
            between = sum(1 for x in idx if a < x < b)
            coeff = (-1.0) ** between if element == a else -((-1.0) ** between)
            target = tuple(sorted(members - {element} | {k}))
            rows[wedge_index(n, a, b), index_map[target]] += coeff
    return rows


# -- suites -------------------------------------------------------------------

def suite_exact_values(seed, trials, tol):
    """Exact catalog norms: metric KN square, sphere products, 2-sphere
    products, and the overlap case.  Deterministic; trials are ignored."""
    failures = []
    t = tol if tol is not None else 1e-12
    for n in range(3, 9):
        g = identity_sym2(n)
        _close(failures, ("gg", n), kulkarni_nomizu(g, g).norm_sq(), 8.0 * (n - 1) * n, t)
    for n in range(2, 9):
        for p in range(2, n + 1):
            got = hat_norm_sq(sphere_product_op(p, n))
            _close(failures, ("sphere", p, n), got, 2.0 * (p - 1) * p * (n - p), t)
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            got = hat_norm_sq(product_of_spheres_op(k, n))
            _close(failures, ("s2prod", k, n), got, 4.0 * k * (n - 2), t)
    a = sphere_product_op(2, 4)
    b = product_of_spheres_op(1, 4)
    _require(
        failures,
        ("overlap",),
        bool(np.array_equal(a.mat, b.mat)),
        hat_norm_sq(a),
        hat_norm_sq(b),
    )
    _close(failures, ("overlap-value",), hat_norm_sq(a), hat_norm_sq(b), t)
    s = spectrum(sphere_product_op(5, 5))
    _close(failures, ("round-sphere",), float(np.abs(s.eigenvalues - 1.0).max()), 0.0, t)
    return failures


def suite_prop_1_1(seed, trials, tol):
    """Kulkarni-Nomizu norm identity on random symmetric tensors."""
    failures = []
    t = tol if tol is not None else 1e-10
    sid = _SUITE_IDS["prop-1.1"]
    count = 0
    for n in range(3, 9):
        g = identity_sym2(n)
        for _ in range(trials):
            rng = _trial_rng(seed, sid, count)
            count += 1
            h = random_sym2(rng, n)
            lhs = kulkarni_nomizu(g, h).norm_sq()
            rhs = 4.0 * (n - 2) * h.norm_sq() + 4.0 * h.trace() ** 2
            _close(failures, ("kn-norm", n, count), lhs, rhs, t)
    return failures


def suite_tensor_core(seed, trials, tol):
    """Trace-free parts, compact/dense form round trips, KN bilinearity."""
    failures = []
    t = tol if tol is not None else 1e-12
    sid = _SUITE_IDS["tensor-core"]
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(2, 9))
        h = random_sym2(rng, n)
        h0 = h.traceless()
        _close(failures, ("traceless-norm", trial), h0.norm_sq(), h.norm_sq() - h.trace() ** 2 / n, t)
        _close(failures, ("traceless-trace", trial), h0.trace(), 0.0, t)
        p = int(rng.integers(1, n + 1))
        w = random_pform(rng, n, p)
        dense = w.to_tensor()
        _close(failures, ("pform-dense-norm", trial), dense.norm_sq(), math.factorial(p) * w.norm_sq(), t)
        back = PForm.from_tensor(dense)
        _close(failures, ("pform-roundtrip", trial), float(np.abs(back.comps - w.comps).max()), 0.0, t)
        if n >= 3:
            a, b, c = (random_sym2(rng, n) for _ in range(3))
            x, y = rng.normal(size=2)
            left = kulkarni_nomizu(a, b).array
            _close(
                failures,
                ("kn-symmetric", trial),
                float(np.abs(left - kulkarni_nomizu(b, a).array).max()),
                0.0,
                t,
            )
            lin = kulkarni_nomizu(Sym2(x * a.mat + y * c.mat), b).array
            _close(
                failures,
                ("kn-bilinear", trial),
                float(np.abs(lin - x * left - y * kulkarni_nomizu(c, b).array).max()),
                0.0,
                t,
            )
    return failures


def suite_prop_1_2(seed, trials, tol):
    """The action commutes with slot permutations; Leibniz rule for KN."""
    failures = []
    t = tol if tol is not None else 1e-12
    sid = _SUITE_IDS["prop-1.2"]
    count = 0
    for n in range(3, 8):
        for _ in range(trials):
            rng = _trial_rng(seed, sid, count)
            count += 1
            k = int(rng.integers(2, 5))
            lam = random_so(rng, n)
            tt = random_tensor(rng, n, k)
            sigma = tuple(rng.permutation(k))
            left = so_act(lam, permute(tt, sigma))
            right = permute(so_act(lam, tt), sigma)
            _close(failures, ("permute", n, count), float(np.abs(left.array - right.array).max()), 0.0, t)
            s, u = random_sym2(rng, n), random_sym2(rng, n)
            lhs = so_act(lam, kulkarni_nomizu(s, u))
            rhs = kulkarni_nomizu(so_act(lam, s), u).array + kulkarni_nomizu(s, so_act(lam, u)).array
            _close(failures, ("leibniz", n, count), float(np.abs(lhs.array - rhs).max()), 0.0, t)
    return failures


def suite_prop_1_3(seed, trials, tol):
    """The action of so(n) on symmetric tensors is trace free; the metric is
    killed outright."""
    failures = []
    t = tol if tol is not None else 1e-12
    sid = _SUITE_IDS["prop-1.3"]
    count = 0
    for n in range(3, 8):
        for _ in range(trials):
            rng = _trial_rng(seed, sid, count)
            count += 1
            lam = random_so(rng, n)
            h = random_sym2(rng, n)
            _close(failures, ("trace", n, count), so_act(lam, h).trace(), 0.0, t)
            _close(
                failures,
                ("metric", n, count),
                so_act(lam, identity_sym2(n)).norm_sq(),
                0.0,
                t,
            )
    return failures


def suite_prop_1_6(seed, trials, tol):
    """Norm of the action on a symmetric wedge operator through its spectrum."""
    failures = []
    t = tol if tol is not None else 1e-9
    sid = _SUITE_IDS["prop-1.6"]
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(3, 6))
        r = random_sym_operator(rng, n)
        lam = random_so(rng, n)
        lhs = act_on_operator(lam, r).norm_sq()
        vals, vecs = jacobi_eigh(r.mat)
        gram = vecs.T @ ad_matrix(lam) @ vecs
        rhs = float(np.sum((vals[:, None] - vals[None, :]) ** 2 * gram * gram))
        _close(failures, ("eigen-norm", trial), lhs, rhs, t)
    return failures


def suite_prop_1_7(seed, trials, tol):
    """Action norm on symmetric tensors in an eigenbasis, its sharp bound,
    and the hat norm identity."""
    failures = []
    t = tol if tol is not None else 1e-9
    sid = _SUITE_IDS["prop-1.7"]
    for n_index, n in enumerate(range(3, 8)):
        draws = []
        for trial in range(trials):
            rng = _trial_rng(seed, sid, n_index * trials + trial)
            draws.append((random_sym2(rng, n), random_so(rng, n)))
        vals_all, vecs_all = jacobi_eigh_batch(np.array([h.mat for h, _ in draws]))
        for trial, (h, lam) in enumerate(draws):
            lhs = so_act(lam, h).norm_sq()
            vals, vecs = vals_all[trial], vecs_all[trial]
            gram = vecs.T @ lam.matrix() @ vecs
            rhs = float(np.sum((vals[:, None] - vals[None, :]) ** 2 * gram * gram))
            _close(failures, ("eigen-norm", n, trial), lhs, rhs, t)
            spread = float(vals[-1] - vals[0])
            _at_most(failures, ("spread-bound", n, trial), lhs, 2.0 * spread ** 2 * lam.norm_sq(), t)
            hat_sq = hat_norm_sq(h)
            _close(
                failures,
                ("hat-norm", n, trial),
                hat_sq,
                2.0 * n * h.norm_sq() - 2.0 * h.trace() ** 2,
                t,
            )
            _close(
                failures,
                ("hat-traceless", n, trial),
                hat_sq,
                2.0 * n * h.traceless().norm_sq(),
                t,
            )
    return failures


def suite_prop_1_9(seed, trials, tol):
    """Self-adjointness: the Ricci pairing equals the curvature term for
    every supported tensor kind."""
    failures = []
    t = tol if tol is not None else 1e-10
    sid = _SUITE_IDS["prop-1.9"]
    count = 0
    for n in range(3, 8):
        for trial in range(trials):
            rng = _trial_rng(seed, sid, count)
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
                s = tensor_from_op(random_sym_operator(rng, n))
                u = tensor_from_op(random_sym_operator(rng, n))
            lhs = inner(ric_of(r, s), u)
            rhs = curvature_term(r, s, u)
            _close(failures, ("adjoint", n, count, which), lhs, rhs, t)
    return failures


def suite_prop_2_8(seed, trials, tol):
    """Identity-operator Ricci curvature on symmetric tensors, forms, and
    curvature tensors, with the hat-norm consequences."""
    failures = []
    t = tol if tol is not None else 1e-9
    sid = _SUITE_IDS["prop-2.8"]
    count = 0
    for n in range(3, 8):
        ident = identity_operator(n)
        g = identity_sym2(n)
        for _ in range(trials):
            rng = _trial_rng(seed, sid, count)
            count += 1
            h = random_sym2(rng, n)
            got = ric_of(ident, h)
            want = 2.0 * n * h.traceless().mat
            _close(failures, ("sym2", n, count), float(np.abs(got.mat - want).max()), 0.0, t)
            p = int(rng.integers(1, n))
            w = random_pform(rng, n, p)
            got_w = ric_of(ident, w)
            _close(
                failures,
                ("pform", n, count),
                float(np.abs(got_w.comps - p * (n - p) * w.comps).max()),
                0.0,
                t,
            )
            _close(failures, ("pform-hat", n, count), hat_norm_sq(w), p * (n - p) * w.norm_sq(), t)
            rb = random_bianchi_operator(rng, n)
            rm = tensor_from_op(rb)
            ric, scal = ricci_contract(rb)
            got_rm = ric_of(ident, rm)
            want_rm = 4.0 * (n - 1) * rm.array - 2.0 * kulkarni_nomizu(g, ric).array
            _close(failures, ("curv", n, count), float(np.abs(got_rm.array - want_rm).max()), 0.0, t)
            ric0 = ric.traceless()
            rm0_sq = rm.norm_sq() - scal ** 2 / (2.0 * (n - 1) * n) * 4.0
            _close(
                failures,
                ("hat-rm", n, count),
                hat_norm_sq(rm),
                4.0 * (n - 1) * rm0_sq - 8.0 * ric0.norm_sq(),
                t,
            )
            r0_sq = rb.traceless().norm_sq()
            _close(
                failures,
                ("hat-op", n, count),
                hat_norm_sq(rb),
                4.0 * (n - 1) * r0_sq - 2.0 * ric0.norm_sq(),
                t,
            )
    return failures


def suite_ric_closed_form(seed, trials, tol):
    """The combinatorial closed form of the identity-operator Ricci curvature
    against the definitional double sum."""
    failures = []
    t = tol if tol is not None else 1e-12
    sid = _SUITE_IDS["ric-closed-form"]
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        tt = random_tensor(rng, n, k)
        via_def = ric_of(identity_operator(n), tt)
        via_form = ric_identity_closed_form(tt)
        _close(
            failures,
            ("closed-form", trial),
            float(np.abs(via_def.array - via_form.array).max()),
            0.0,
            t,
        )
    return failures


def suite_hat_closed_form(seed, trials, tol):
    """Hats of wedge basis forms against the combinatorial expansion, exactly."""
    failures = []
    t = tol if tol is not None else 0.0
    sid = _SUITE_IDS["hat-closed-form"]
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, n + 1))
        idx = tuple(sorted(rng.choice(n, size=p, replace=False).tolist()))
        got = _block_rows(wedge_basis_form(n, idx))
        want = hat_wedge_closed_form(n, idx)
        _close(failures, ("hat-expansion", trial, n, idx), float(np.abs(got - want).max()), 0.0, t)
    return failures


def suite_hat_structure(seed, trials, tol):
    """Hat blocks agree with direct actions and pairing against any element
    reproduces that element's action."""
    failures = []
    t = tol if tol is not None else 1e-12
    sid = _SUITE_IDS["hat-structure"]
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(2, 6))
        which = trial % 3
        if which == 0:
            tt = random_sym2(rng, n)
        elif which == 1:
            tt = random_pform(rng, n, int(rng.integers(1, n)))
        else:
            tt = random_tensor(rng, n, 3)
        ht = hat(tt)
        pairs = wedge_pairs(n)
        for a in range(len(pairs)):
            lam = SoElement(n, np.eye(len(pairs))[a])
            block = so_act(lam, tt)
            gap_sq = (
                inner(ht.blocks[a], ht.blocks[a])
                - 2.0 * inner(ht.blocks[a], block)
                + inner(block, block)
            )
            _close(failures, ("block", trial, a), abs(gap_sq), 0.0, t)
        lam = random_so(rng, n)
        paired = ht.pair_with(lam)
        direct = so_act(lam, tt)
        gap = inner(paired, paired) - 2.0 * inner(paired, direct) + inner(direct, direct)
        _close(failures, ("pairing", trial), abs(gap), 0.0, t)
        _close(failures, ("norm", trial), ht.norm_sq(), hat_norm_sq(tt), t)
    return failures


def suite_basis_independence(seed, trials, tol):
    """The curvature term is unchanged under a random orthogonal re-basis of
    wedge space."""
    failures = []
    t = tol if tol is not None else 1e-9
    sid = _SUITE_IDS["basis-independence"]
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(3, 6))
        r = random_sym_operator(rng, n)
        s = random_sym2(rng, n)
        u = random_sym2(rng, n)
        base = curvature_term(r, s, u)
        big_n = wedge_count(n)
        q = random_orthogonal(rng, big_n)
        rp = q.T @ r.mat @ q
        blocks_s = [so_act(SoElement(n, q[:, b]), s) for b in range(big_n)]
        blocks_u = [so_act(SoElement(n, q[:, b]), u) for b in range(big_n)]
        total = 0.0
        for bi in range(big_n):
            for ci in range(big_n):
                total += rp[bi, ci] * inner(blocks_s[bi], blocks_u[ci])
        _close(failures, ("rebasis", trial), base, total, t)
    return failures


def suite_bianchi_split(seed, trials, tol):
    """The alternation split is an orthogonal projection onto the Bianchi
    subspace."""
    failures = []
    t = tol if tol is not None else 1e-12
    sid = _SUITE_IDS["bianchi-split"]
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(3, 7))
        r = random_sym_operator(rng, n)
        rb, lam4 = bianchi_split(r)
        rm = tensor_from_op(r)
        recomposed = tensor_from_op(rb).array + lam4.array
        _close(failures, ("sum", trial), float(np.abs(recomposed - rm.array).max()), 0.0, t)
        _close(failures, ("orthogonal", trial), inner(tensor_from_op(rb), lam4), 0.0, t)
        rb2, lam4b = bianchi_split(rb)
        _close(failures, ("idempotent", trial), float(np.abs(lam4b.array).max()), 0.0, t)
        _require(failures, ("certified", trial), rb.bianchi_certified is True)
        ric = np.einsum("iaja->ij", lam4.array)
        _close(failures, ("lam4-ricci", trial), float(np.abs(ric).max()), 0.0, t)
    return failures


def suite_decompose(seed, trials, tol):
    """Reassembly, orthogonality, total trace-freeness, the Schouten relation,
    and the hat-norm consequence of the decomposition."""
    failures = []
    t = tol if tol is not None else 1e-12
    sid = _SUITE_IDS["decompose"]
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(3, 8))
        rb = random_bianchi_operator(rng, n)
        rm = tensor_from_op(rb)
        dec = decompose(rb)
        g = identity_sym2(n)
        scal_part = CurvTensor(dec.scal / (2.0 * (n - 1) * n) * kulkarni_nomizu(g, g).array)
        ric_part = CurvTensor(kulkarni_nomizu(g, dec.ric0).array / (n - 2.0))
        back = scal_part.array + ric_part.array + dec.weyl.array
        _close(failures, ("reassembly", trial), float(np.abs(back - rm.array).max()), 0.0, t)
        _close(failures, ("orth-sw", trial), inner(scal_part, dec.weyl), 0.0, t * max(1.0, rm.norm_sq()))
        _close(failures, ("orth-sr", trial), inner(scal_part, ric_part), 0.0, t * max(1.0, rm.norm_sq()))
        _close(failures, ("orth-rw", trial), inner(ric_part, dec.weyl), 0.0, t * max(1.0, rm.norm_sq()))
        wric = np.einsum("iaja->ij", dec.weyl.array)
        _close(failures, ("weyl-tracefree", trial), float(np.abs(wric).max()), 0.0, t)
        schouten_back = kulkarni_nomizu(dec.schouten, g).array + dec.weyl.array
        _close(failures, ("schouten", trial), float(np.abs(schouten_back - rm.array).max()), 0.0, t)
        lhs = hat_norm_sq(rm)
        rhs = (16.0 * (n - 1) / (n - 2) - 8.0) * dec.ric0.norm_sq() + 4.0 * (n - 1) * dec.weyl.norm_sq()
        _close(failures, ("hat-identity", trial), lhs, rhs, max(t, 1e-9))
    return failures


def suite_spectrum(seed, trials, tol):
    """Jacobi spectra: residuals, orthogonality, invariance under orthogonal
    conjugation, and batch/single agreement."""
    failures = []
    t = tol if tol is not None else 1e-10
    sid = _SUITE_IDS["spectrum"]
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(3, 8))
        r = random_sym_operator(rng, n)
        s = spectrum(r)
        norm = math.sqrt(r.norm_sq())
        res = float(np.abs(r.mat @ s.eigenvectors - s.eigenvectors * s.eigenvalues[None, :]).max())
        _at_most(failures, ("residual", trial), res, t * max(1.0, norm), 0.0)
        orth = float(np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(r.N)).max())
        _at_most(failures, ("orthogonal", trial), orth, t, 0.0)
        q = random_orthogonal(rng, r.N)
        s2 = spectrum(CurvatureOperator(r.n, q.T @ r.mat @ q))
        _close(
            failures,
            ("conjugation", trial),
            float(np.abs(s.eigenvalues - s2.eigenvalues).max()),
            0.0,
            max(t, 1e-9) * max(1.0, norm),
        )
        batch_vals, batch_vecs = jacobi_eigh_batch(np.array([r.mat, q.T @ r.mat @ q]))
        _require(
            failures,
            ("batch", trial),
            bool(np.array_equal(batch_vals[0], s.eigenvalues))
            and bool(np.array_equal(batch_vecs[0], s.eigenvectors)),
        )
    return failures


def suite_lemma_2_2(seed, trials, tol):
    """Action-norm inequalities for every tensor kind, including both KN
    corollary forms."""
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


def suite_lemma_2_2_sharpness(seed, trials, tol):
    """The catalog extremals achieve equality in their estimates."""
    failures = []
    t = tol if tol is not None else 1e-12
    sym_pair, form_pair = small_extremals()
    h, lam = sym_pair.tensor, sym_pair.element
    _close(
        failures,
        ("sym2-equality",),
        so_act(lam, h).norm_sq(),
        4.0 * h.norm_sq() * lam.norm_sq(),
        t,
    )
    _close(failures, ("sym2-value",), so_act(lam, h).norm_sq(), 8.0, t)
    w, lam2 = form_pair.tensor, form_pair.element
    lw = so_act(lam2, w)
    _close(failures, ("form-norm",), lw.norm_sq(), 8.0, t)
    _close(failures, ("form-equality",), lw.norm_sq(), 2.0 * w.norm_sq() * lam2.norm_sq(), t)
    for scale_trial in (3.0,):
        scaled = PForm(w.n, w.p, scale_trial * w.comps)
        _close(
            failures,
            ("form-rescale",),
            so_act(lam2, scaled).norm_sq(),
            scale_trial ** 2 * lw.norm_sq(),
            t,
        )
    for p in (1, 2, 3, 4):
        w1, w2, lamp = extremal_pform(p)
        n = 2 * p
        lw1 = so_act(lamp, w1)
        _close(
            failures,
            ("pform-equality", p),
            lw1.norm_sq(),
            min(p, n - p) * w1.norm_sq() * lamp.norm_sq(),
            t,
        )
    op, _ = singer_thorpe_op((-1.0, 1.0, 3.0, 1.0, 1.0, 1.0))
    basis = singer_thorpe_basis()
    lr = act_on_operator(basis[1], op).norm_sq()
    r0 = op.traceless().norm_sq()
    _close(failures, ("curv-equality",), lr, 8.0 * r0, t)
    _close(failures, ("curv-value",), lr, 64.0, t)
    return failures


def suite_estimate_constants(seed, trials, tol):
    """The defining property of each kind's constant: the action norm is at
    most the hat norm times the rotation norm over C."""
    failures = []
    t = tol if tol is not None else 1e-10
    sid = _SUITE_IDS["estimate-constants"]
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(3, 7))
        lam = random_so(rng, n)
        lam_sq = lam.norm_sq()
        p = int(rng.integers(1, n))
        w = random_pform(rng, n, p)
        c = estimate_constant(TensorKind.pform(p), n)
        _at_most(
            failures,
            ("pform", trial),
            so_act(lam, w).norm_sq(),
            hat_norm_sq(w) * lam_sq / c,
            t,
        )
        h = random_sym2(rng, n)
        c = estimate_constant(TensorKind.sym2(), n)
        _at_most(
            failures,
            ("sym2", trial),
            so_act(lam, h).norm_sq(),
            hat_norm_sq(h) * lam_sq / c,
            t,
        )
        dec = decompose(random_bianchi_operator(rng, n))
        einstein = _einstein_part(dec)
        c = estimate_constant(TensorKind.curvature_einstein(), n)
        _at_most(
            failures,
            ("einstein", trial),
            so_act(lam, einstein).norm_sq(),
            hat_norm_sq(einstein) * lam_sq / c,
            t,
        )
        c = estimate_constant(TensorKind.weyl(), n)
        _at_most(
            failures,
            ("weyl", trial),
            so_act(lam, dec.weyl).norm_sq(),
            hat_norm_sq(dec.weyl) * lam_sq / c,
            t,
        )
        k = int(rng.integers(1, 4))
        tt = random_tensor(rng, n, k)
        hat_sq = hat_norm_sq(tt)
        if hat_sq > 1e-9:
            c = estimate_constant(TensorKind.generic(k), n, hat_ratio=hat_sq / tt.norm_sq())
            _at_most(
                failures,
                ("generic", trial),
                so_act(lam, tt).norm_sq(),
                hat_sq * lam_sq / c,
                t,
            )
    return failures


def suite_lemma_2_1_soundness(seed, trials, tol):
    """Whenever the eigenvalue-average verdict holds at the kind's constant,
    the direct curvature-term bound holds too, including the quantitative
    positive case."""
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
                    tt = _einstein_part(shared)
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
                # the tightest certified coefficient also works
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


def suite_boundary_cases(seed, trials, tol):
    """The deterministic boundary examples: the flat-term form, the negative
    2-form term family, and the indefinite Einstein operator."""
    failures = []
    t = tol if tol is not None else 1e-12
    cp2 = cp2_op()
    kaehler = PForm(4, 2, np.zeros(6))
    comps = np.array(kaehler.comps)
    comps[wedge_index(4, 0, 3)] = 1.0
    comps[wedge_index(4, 1, 2)] = 1.0
    kaehler = PForm(4, 2, comps)
    _close(failures, ("cp2-term",), curvature_term(cp2, kaehler, kaehler), 0.0, t)
    s = spectrum(cp2)
    _close(failures, ("cp2-spectrum",), float(np.abs(s.eigenvalues - np.array([0, 0, 2, 2, 2, 6.0])).max()), 0.0, t)
    bv = betti_verdict(s, 4, 2)
    _require(failures, ("cp2-not-vanishing",), not bv.vanishing)
    _require(failures, ("cp2-parallel",), bv.parallel_only)
    tv = tachibana_verdict(s, 4)
    _require(failures, ("cp2-tachibana",), tv.parallel and not tv.constant_curvature)
    for n in (4, 5, 6):
        for lam_scale in (1.0, 2.5):
            op, form = negative_2form_term_op(n, lam_scale)
            term = curvature_term(op, form, form)
            _close(failures, ("neg-term", n, lam_scale), term, -4.0 * lam_scale * form.norm_sq(), max(t, 1e-12))
            sn = spectrum(op)
            _close(failures, ("neg-lowest", n, lam_scale), sn.lowest_sum(n - 1), 0.0, 1e-9)
            _require(failures, ("neg-bianchi", n, lam_scale), op.bianchi_certified is True)
    remark = (-1.0, -1.0, 8.0, 2.0, 2.0, 2.0)
    op, _ = singer_thorpe_op(remark)
    rm = tensor_from_op(op)
    four = fourdim_einstein_term(remark)
    _close(failures, ("remark-value",), four, -2592.0, t)
    _close(failures, ("remark-term",), four, curvature_term(op, rm, rm), 1e-9)
    _require(failures, ("remark-negative",), four < 0.0)
    sr = spectrum(op)
    tvr = tachibana_verdict(sr, 4)
    _require(failures, ("remark-tachibana",), not tvr.parallel and not tvr.constant_curvature)
    dec = decompose(cp2)
    _close(failures, ("cp2-einstein",), dec.ric0.norm_sq(), 0.0, t)
    _require(failures, ("cp2-weyl",), dec.weyl.norm_sq() > 1.0)
    return failures


def suite_singer_thorpe(seed, trials, tol):
    """Multiplication table of the split basis, the Bianchi criterion over
    random eigenvalue sextuples, and the basis-diagonal norm formula."""
    failures = []
    t = tol if tol is not None else 1e-15
    sid = _SUITE_IDS["singer-thorpe"]
    basis = singer_thorpe_basis()
    root2 = math.sqrt(2.0)
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            out = ad_matrix(basis[i]) @ basis[j].comps
            same_triple = (i < 3) == (j < 3)
            if not same_triple:
                _close(failures, ("table-zero", i, j), float(np.abs(out).max()), 0.0, 0.0)
                continue
            k = ({0, 1, 2} if i < 3 else {3, 4, 5}).difference({i, j}).pop()
            coeff = float(out @ basis[k].comps)
            _close(failures, ("table-coeff", i, j), abs(coeff), root2, t)
            _close(
                failures,
                ("table-direction", i, j),
                float(np.abs(out - coeff * basis[k].comps).max()),
                0.0,
                t,
            )
    for i in range(6):
        for j in range(6):
            gram = float(basis[i].comps @ basis[j].comps)
            _close(failures, ("orthonormal", i, j), gram, 1.0 if i == j else 0.0, t)
    star = np.zeros((6, 6))
    star[wedge_index(4, 0, 1), wedge_index(4, 2, 3)] = 1.0
    star[wedge_index(4, 2, 3), wedge_index(4, 0, 1)] = 1.0
    star[wedge_index(4, 0, 2), wedge_index(4, 1, 3)] = -1.0
    star[wedge_index(4, 1, 3), wedge_index(4, 0, 2)] = -1.0
    star[wedge_index(4, 0, 3), wedge_index(4, 1, 2)] = 1.0
    star[wedge_index(4, 1, 2), wedge_index(4, 0, 3)] = 1.0
    for i in range(6):
        want = basis[i].comps if i < 3 else -basis[i].comps
        _close(failures, ("duality", i), float(np.abs(star @ basis[i].comps - want).max()), 0.0, t)
    sid_count = 0
    for trial in range(trials):
        rng = _trial_rng(seed, sid, sid_count)
        sid_count += 1
        lams = rng.normal(size=6)
        if trial % 2 == 0:
            lams[5] = lams[0] + lams[1] + lams[2] - lams[3] - lams[4]
            expect = True
        else:
            gap = lams[0] + lams[1] + lams[2] - lams[3] - lams[4] - lams[5]
            if abs(gap) < 0.1:
                lams[5] -= 0.5 if gap >= 0 else -0.5
            expect = False
        op, _ = singer_thorpe_op(lams)
        _require(failures, ("bianchi-iff", trial), op.bianchi_certified is expect)
        a = rng.normal(size=6)
        lam_el = SoElement(4, sum(a[g] * basis[g].comps for g in range(6)))
        lhs = act_on_operator(lam_el, op).norm_sq()
        triples = ((1, 2), (0, 2), (0, 1), (4, 5), (3, 5), (3, 4))
        rhs = 4.0 * sum(
            a[g] ** 2 * (lams[x] - lams[y]) ** 2 for g, (x, y) in enumerate(triples)
        )
        _close(failures, ("diagonal-norm", trial), lhs, rhs, 1e-9)
        spread = max(lams) - min(lams)
        _at_most(failures, ("diagonal-bound", trial), lhs, 4.0 * spread ** 2 * lam_el.norm_sq(), 1e-9)
    cp2 = cp2_op()
    for idx, want in ((0, 144.0), (1, 144.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, 0.0)):
        got = act_on_operator(basis[idx], cp2).norm_sq()
        _close(failures, ("cp2-maximal", idx), got, want, 1e-12)
    return failures


def suite_fourdim_einstein(seed, trials, tol):
    """The six-eigenvalue expansion of the curvature term on the operator's
    own curvature tensor."""
    failures = []
    t = tol if tol is not None else 1e-9
    sid = _SUITE_IDS["fourdim-einstein"]
    _close(failures, ("equal",), fourdim_einstein_term((3.0,) * 6), 0.0, 0.0)
    _close(failures, ("remark",), fourdim_einstein_term((-1, -1, 8, 2, 2, 2)), -2592.0, 0.0)
    _close(failures, ("cp2",), fourdim_einstein_term((0, 0, 6, 2, 2, 2)), 0.0, 0.0)
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        lams = rng.normal(size=6)
        lams[5] = lams[0] + lams[1] + lams[2] - lams[3] - lams[4]
        op, _ = singer_thorpe_op(lams)
        rm = tensor_from_op(op)
        _close(
            failures,
            ("identity", trial),
            fourdim_einstein_term(lams),
            curvature_term(op, rm, rm),
            t,
        )
    return failures


def suite_normal_h(seed, trials, tol):
    """The complex-eigenbasis expansion of the curvature term on normal
    endomorphisms against the real computation."""
    failures = []
    t = tol if tol is not None else 1e-9
    sid = _SUITE_IDS["normal-h"]
    op4, _ = negative_sym2_term_op(4, 1.0, -1.0)
    _close(failures, ("flat",), normal_h_term(op4, np.diag([-1.0, 0.0, 0.0, 1.0])), 0.0, t)
    op6, h6 = negative_sym2_term_op(6, 1.0, -3.0)
    _close(failures, ("negative",), normal_h_term(op6, np.diag([-1.0, 0, 0, 0, 0, 1.0])), -8.0, t)
    _close(failures, ("metric",), normal_h_term(op6, np.eye(6)), 0.0, t)
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(3, 7))
        r = random_sym_operator(rng, n)
        hmat = random_normal_matrix(rng, n)
        lhs = normal_h_term(r, hmat)
        ht = normal_h_tensor(hmat)
        rhs = curvature_term(r, ht, ht)
        _close(failures, ("expansion", trial), lhs, rhs, t)
    return failures


def suite_extremal_pform(seed, trials, tol):
    """Rotation-pair identities, support sizes, and the group tally of the
    sharp p-form family."""
    failures = []
    t = tol if tol is not None else 0.0
    for p in (1, 2, 3, 4):
        w1, w2, lam = extremal_pform(p)
        lw1 = so_act(lam, w1)
        lw2 = so_act(lam, w2)
        _close(failures, ("first", p), float(np.abs(lw1.comps + p * w2.comps).max()), 0.0, t)
        _close(failures, ("second", p), float(np.abs(lw2.comps - p * w1.comps).max()), 0.0, t)
        sup1 = int(np.count_nonzero(w1.comps))
        sup2 = int(np.count_nonzero(w2.comps))
        _require(failures, ("support", p), sup1 + sup2 == 2 ** p, sup1 + sup2, 2 ** p)
        _require(
            failures,
            ("disjoint", p),
            not np.any((w1.comps != 0) & (w2.comps != 0)),
        )
        _require(
            failures,
            ("unit-coeffs", p),
            bool(np.all(np.isin(w1.comps, (-1.0, 0.0, 1.0))))
            and bool(np.all(np.isin(w2.comps, (-1.0, 0.0, 1.0)))),
        )
    return failures


def suite_complex_sectional(seed, trials, tol):
    """Complex sectional curvatures: real pairs, the eigen-expansion, and
    the isotropic plane value of the symmetric example operator."""
    failures = []
    t = tol if tol is not None else 1e-9
    sid = _SUITE_IDS["complex-sectional"]
    cp2 = cp2_op()
    z = np.array([1.0, 1.0j, 0.0, 0.0]) / math.sqrt(2.0)
    w = np.array([0.0, 0.0, 1.0, 1.0j]) / math.sqrt(2.0)
    _close(failures, ("cp2-isotropic",), complex_sectional(cp2, z, w), 3.0, 1e-12)
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(3, 7))
        r = random_sym_operator(rng, n)
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        e = np.eye(n)
        real_pair = complex_sectional(r, e[:, i], e[:, j])
        _close(
            failures,
            ("real-pair", trial),
            real_pair,
            float(r.mat[wedge_index(n, i, j), wedge_index(n, i, j)]),
            1e-12,
        )
        zc = rng.normal(size=n) + 1j * rng.normal(size=n)
        wc = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = complex_sectional(r, zc, wc)
        vals, vecs = jacobi_eigh(r.mat)
        from .operators import wedge_coordinates

        zeta = wedge_coordinates(zc, wc, n)
        coeffs = vecs.T @ zeta
        want = float(np.sum(vals * np.abs(coeffs) ** 2))
        _close(failures, ("eigen-expansion", trial), got, want, t)
        ident = identity_operator(n)
        _require(
            failures,
            ("identity-positive", trial),
            complex_sectional(ident, zc, wc) > 0.0,
        )
    return failures


def suite_warped_round(seed, trials, tol):
    """Round jets give the all-ones spectrum with the right multiplicities,
    and assembled operators are Bianchi."""
    failures = []
    t = tol if tol is not None else 1e-12
    sid = _SUITE_IDS["warped-round"]
    for p in (2, 3, 4):
        for q in (2, 3, 4):
            for ridx, r in enumerate((0.3, 0.7, 1.1, 1.4)):
                evs = dwp_eigenvalue_list(p, q, round_jet(r))
                _close(failures, ("ones", p, q, ridx), float(np.abs(evs - 1.0).max()), 0.0, t)
                want = math.comb(p + q + 1, 2)
                _require(failures, ("count", p, q, ridx), evs.size == want, evs.size, want)
            fams = dwp_eigenvalues(p, q, round_jet(0.5))
            tally = sum(m for _, m, _ in fams)
            _require(failures, ("tally", p, q), tally == math.comb(p + q + 1, 2))
            if p + q + 1 <= 8:
                op = dwp_operator(p, q, round_jet(0.8))
                _require(failures, ("bianchi", p, q), op.bianchi_certified is True)
                _close(
                    failures,
                    ("identity", p, q),
                    float(np.abs(op.mat - np.eye(op.N)).max()),
                    0.0,
                    t,
                )
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        prof = perturbed_profile(2, 2, float(rng.uniform(0.2, 1.5)), 0.8, 0.1)
        r = float(rng.uniform(0.2, 1.3))
        op = dwp_operator(2, 2, prof(r))
        _require(failures, ("perturbed-bianchi", trial), op.bianchi_certified is True)
    return failures


def suite_warped_perturbed(seed, trials, tol):
    """The bump profile: exact round limit, the deep radial dip with the
    other families pinned near one, and the positivity transition."""
    failures = []
    t = tol if tol is not None else 1e-12
    prof0 = perturbed_profile(2, 2, 0.0, 0.8, 0.2)
    for r in (0.3, 0.8, 1.2):
        jet = prof0(r)
        base = round_jet(r)
        _close(failures, ("round-limit", r), abs(jet.phi - base.phi) + abs(jet.dphi - base.dphi) + abs(jet.d2phi - base.d2phi), 0.0, t)
    _close(failures, ("round-bound",), prof0.c1_bound, 0.0, t)
    # deep dip, everything else near one on an interior window
    prof = perturbed_profile(2, 2, 2.0, 0.8, 0.01)
    rs = np.linspace(0.1, 1.2, 400)
    radial = []
    others = []
    for r in rs:
        fams = dwp_eigenvalues(2, 2, prof(r))
        radial.append(fams[0][0])
        others.extend(v for v, _, _ in fams[1:])
    _require(failures, ("dip",), min(radial) <= -1.0, min(radial), -1.0)
    _require(
        failures,
        ("others-near-one",),
        0.9 <= min(others) and max(others) <= 1.1,
        min(others),
        max(others),
    )
    # 3-positive everywhere but not 2-positive somewhere
    prof2 = perturbed_profile(2, 2, 0.9, 0.8, 0.05)
    rs = np.linspace(0.02, math.pi / 2 - 0.02, 500)
    low2 = []
    low3 = []
    for r in rs:
        evs = dwp_eigenvalue_list(2, 2, prof2(r))
        low2.append(float(evs[:2].sum()))
        low3.append(float(evs[:3].sum()))
    _require(failures, ("not-2-positive",), min(low2) <= 0.0, min(low2), 0.0)
    _require(failures, ("3-positive",), min(low3) > 0.0, min(low3), 0.0)
    return failures


def suite_ode(seed, trials, tol):
    """Fixed point, axis crossings with the radius growth, exact scalar
    curvature along trajectories, time reversal, and the convergence order."""
    failures = []
    t = tol if tol is not None else 1e-6
    for n in (4, 5, 6, 7, 8):
        center = math.sqrt((n - 2) / 2.0)
        states, status = integrate_warp_ode(n, center, 0.0, 1e-3, 3.0)
        drift = max(max(abs(s.x - center), abs(s.y)) for s in states)
        _at_most(failures, ("fixed-point", n), drift, 1e-8, 0.0)
        _require(failures, ("fixed-status", n), status == "ok")
        x0 = math.sqrt((n - 2) / 4.0)
        res = ode_shoot(n, x0, step=1e-3, t_max=30.0)
        _require(failures, ("crossed", n), res.status == "crossed")
        if res.crossing is not None:
            _require(
                failures,
                ("radius-growth", n),
                res.crossing[1] ** 2 > (n - 2) / 2.0,
                res.crossing[1] ** 2,
                (n - 2) / 2.0,
            )
        scal = trajectory_scal(n, res.states)
        _at_most(failures, ("scal", n), float(np.abs(scal - 2.0 * (n - 1)).max()), t, 0.0)
    # time reversal: reflecting a segment solves the system again
    n = 4
    fwd, status = integrate_warp_ode(n, 0.6, 0.0, 1e-3, 2.0)
    last = fwd[-1]
    back, status2 = integrate_warp_ode(n, last.x, -last.y, 1e-3, 2.0)
    worst = 0.0
    for a, b in zip(back, reversed(fwd)):
        worst = max(worst, abs(a.x - b.x), abs(a.y + b.y))
    _at_most(failures, ("time-reversal",), worst, 1e-6, 0.0)
    # fourth order convergence measured through the crossing radius
    def crossing_radius(h):
        return ode_shoot(4, math.sqrt(0.5), step=h, t_max=30.0).crossing[1]

    coarse, mid, fine, reference = (
        crossing_radius(0.02),
        crossing_radius(0.01),
        crossing_radius(0.005),
        crossing_radius(0.0025),
    )
    err_coarse = abs(coarse - reference)
    err_mid = abs(mid - reference)
    err_fine = abs(fine - reference)
    _require(
        failures,
        ("halving-factor",),
        err_coarse >= 8.0 * err_mid and err_mid >= 8.0 * err_fine,
        err_coarse / max(err_mid, 1e-300),
        8.0,
    )
    order = math.log2(abs(coarse - mid) / max(abs(mid - fine), 1e-300))
    _require(failures, ("order",), order >= 3.8, order, 3.8)
    return failures


def suite_serialization(seed, trials, tol):
    """Operator files: write/read reproduces every matrix entry bit-exactly."""
    failures = []
    sid = _SUITE_IDS["serialization"]
    for trial in range(trials):
        rng = _trial_rng(seed, sid, trial)
        n = int(rng.integers(2, 7))
        op = random_sym_operator(rng, n)
        text = dumps_operator(op, metadata={"label": "round-trip", "value": float(rng.normal())})
        back, doc = loads_operator(text)
        _require(
            failures,
            ("bit-exact", trial),
            bool(np.array_equal(back.mat, op.mat)),
        )
        again = dumps_operator(back, metadata=doc.get("metadata"))
        _require(failures, ("stable", trial), again == text)
    special = CurvatureOperator(2, np.array([[-0.0]]))
    text = dumps_operator(special)
    back, _ = loads_operator(text)
    _require(
        failures,
        ("negative-zero",),
        bool(np.array_equal(back.mat, special.mat)),
    )
    return failures


_SUITE_TABLE = (
    ("exact-values", suite_exact_values, 1),
    ("prop-1.1", suite_prop_1_1, 1000),
    ("tensor-core", suite_tensor_core, 300),
    ("prop-1.2", suite_prop_1_2, 400),
    ("prop-1.3", suite_prop_1_3, 400),
    ("prop-1.6", suite_prop_1_6, 200),
    ("prop-1.7", suite_prop_1_7, 1000),
    ("prop-1.9", suite_prop_1_9, 1000),
    ("prop-2.8", suite_prop_2_8, 1000),
    ("ric-closed-form", suite_ric_closed_form, 200),
    ("hat-closed-form", suite_hat_closed_form, 150),
    ("hat-structure", suite_hat_structure, 60),
    ("basis-independence", suite_basis_independence, 60),
    ("bianchi-split", suite_bianchi_split, 200),
    ("decompose", suite_decompose, 200),
    ("spectrum", suite_spectrum, 80),
    ("lemma-2.2", suite_lemma_2_2, 10000),
    ("lemma-2.2-sharpness", suite_lemma_2_2_sharpness, 1),
    ("estimate-constants", suite_estimate_constants, 400),
    ("lemma-2.1-soundness", suite_lemma_2_1_soundness, 2500),
    ("boundary-cases", suite_boundary_cases, 1),
    ("singer-thorpe", suite_singer_thorpe, 1000),
    ("fourdim-einstein", suite_fourdim_einstein, 1000),
    ("normal-h", suite_normal_h, 150),
    ("extremal-pform", suite_extremal_pform, 1),
    ("complex-sectional", suite_complex_sectional, 150),
    ("warped-round", suite_warped_round, 20),
    ("warped-perturbed", suite_warped_perturbed, 1),
    ("ode", suite_ode, 1),
    ("serialization", suite_serialization, 100),
)

SUITES = {name: (fn, default) for name, fn, default in _SUITE_TABLE}
_SUITE_IDS = {name: idx for idx, (name, _, _) in enumerate(_SUITE_TABLE)}


def run_suite(name, trials=None, seed=42, tol=None) -> Report:
    """Run one suite and wrap the outcome in a report."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    fn, default = SUITES[name]
    used = default if trials is None else int(trials)
    start = time.perf_counter()
    failures = fn(seed, used, tol)
    elapsed = time.perf_counter() - start
    return Report(suite=name, trials=used, failures=failures, seed=seed, wall_time=elapsed)


def run_all(trials=None, seed=42, tol=None):
    """Run every suite in registry order."""
    return [run_suite(name, trials=trials, seed=seed, tol=tol) for name in SUITES]
