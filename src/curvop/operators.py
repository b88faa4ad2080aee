"""Algebraic curvature operators on the second exterior power.

A curvature operator is a symmetric endomorphism of wedge space in the
lexicographic basis {e_i^e_j, i < j}.  This module converts between the
operator and (0,4)-tensor pictures, projects onto the Bianchi subspace by
tensor alternation, contracts to Ricci and scalar parts, performs the
orthogonal scalar / traceless-Ricci / Weyl decomposition, and diagonalizes
by Jacobi rotations in round-robin (Brent-Luk) order, N/2 disjoint
rotations per vectorized step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensors import (
    CurvTensor,
    Sym2,
    _freeze,
    _pair_index,
    _perm_signs,
    _require_finite,
    check_dimension,
    identity_sym2,
    kulkarni_nomizu,
    wedge_count,
    wedge_pairs,
)


class CurvatureOperator:
    """Symmetric operator on wedge space, stored exactly symmetric.

    bianchi_certified is tri-state: True / False once checked, None before.
    """

    __slots__ = ("n", "N", "mat", "bianchi_certified")

    def __init__(self, n, mat, bianchi=None, tol=1e-9):
        n = check_dimension(n)
        m = np.array(mat, dtype=float)
        want = wedge_count(n)
        if m.shape != (want, want):
            raise ValueError(f"expected a {want}x{want} matrix for n={n}, got {m.shape}")
        _require_finite(m, "operator entries")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > tol * scale:
            raise ValueError("operator matrix is not symmetric")
        m = (m + m.T) / 2.0
        self.n = n
        self.N = want
        self.mat = _freeze(m)
        self.bianchi_certified = bianchi

    def certify_bianchi(self, tol=1e-12) -> bool:
        """Check the Bianchi flag by tensor alternation and cache the result."""
        rm = tensor_from_op(self)
        scale = max(1.0, float(np.abs(rm.array).max()))
        ok = rm.bianchi_residual() <= tol * scale
        self.bianchi_certified = ok
        return ok

    def norm_sq(self) -> float:
        """Squared norm as an element of the symmetric square of wedge space."""
        return float(np.sum(self.mat * self.mat))

    def traceless(self) -> "CurvatureOperator":
        off = (float(np.trace(self.mat)) / self.N) * np.eye(self.N)
        return CurvatureOperator(self.n, self.mat - off)

    def __repr__(self):
        return f"CurvatureOperator(n={self.n}, bianchi={self.bianchi_certified})"


def identity_operator(n) -> CurvatureOperator:
    """The unit-sphere curvature operator (half the metric KN square)."""
    return CurvatureOperator(n, np.eye(wedge_count(n)), bianchi=True)


@lru_cache(maxsize=None)
def _wedge_patterns(n):
    """Stack of skew coordinate patterns, one per wedge basis pair."""
    pairs = wedge_pairs(n)
    w = np.zeros((len(pairs), n, n))
    for a, (i, j) in enumerate(pairs):
        w[a, i, j] = 1.0
        w[a, j, i] = -1.0
    w.setflags(write=False)
    return w


def op_from_tensor(rm: CurvTensor) -> CurvatureOperator:
    """Wedge-basis matrix of a (0,4)-tensor with pair symmetries."""
    if not (rm.pair_skew and rm.pair_symmetric):
        raise ValueError("tensor lacks the pair symmetries of a curvature tensor")
    i, j = _pair_index(rm.n)
    mat = rm.array[i[:, None], j[:, None], i[None, :], j[None, :]]
    flag = True if rm.bianchi else None
    return CurvatureOperator(rm.n, mat, bianchi=flag)


def tensor_from_op(r: CurvatureOperator) -> CurvTensor:
    """(0,4)-tensor with Rm(x,y,z,w) = <R(x^y), z^w>."""
    n = r.n
    w = _wedge_patterns(n).reshape(r.N, n * n)
    arr = (w.T @ (r.mat @ w)).reshape(n, n, n, n)
    return CurvTensor(arr)


def alternation(arr: np.ndarray) -> np.ndarray:
    """Full signed average over the 24 slot permutations of a (0,4)-array."""
    out = np.zeros_like(arr)
    for perm, sign in _perm_signs(4):
        out += sign * np.transpose(arr, perm)
    return out / 24.0


def bianchi_split(r: CurvatureOperator):
    """Split into the Bianchi part and the fully alternating part.

    Returns (r_b, lam4) with r_b a certified CurvatureOperator and lam4 the
    alternating (0,4)-tensor; as tensors, input = r_b + lam4 and the two are
    orthogonal.
    """
    rm = tensor_from_op(r)
    lam4 = alternation(rm.array)
    r_b = op_from_tensor(CurvTensor(rm.array - lam4))
    if r_b.bianchi_certified is not True:
        r_b.certify_bianchi()
    return r_b, CurvTensor(lam4)


def ricci_contract(r: CurvatureOperator):
    """Ricci tensor ric(X,Y) = sum_a Rm(X, e_a, Y, e_a) and its trace."""
    rm = tensor_from_op(r)
    ric = np.einsum("iaja->ij", rm.array)
    sym = Sym2(ric)
    return sym, sym.trace()


@dataclass(frozen=True)
class CurvDecomposition:
    """Scalar / traceless-Ricci / Weyl pieces plus the Schouten tensor."""

    scal: float
    ric0: Sym2
    weyl: CurvTensor
    schouten: Sym2


def decompose(r: CurvatureOperator) -> CurvDecomposition:
    """Orthogonal decomposition of a Bianchi operator, n >= 3 only."""
    n = r.n
    if n < 3:
        raise ValueError("the curvature decomposition needs dimension at least 3")
    if r.bianchi_certified is None:
        r.certify_bianchi()
    if not r.bianchi_certified:
        raise ValueError("operator does not satisfy the first Bianchi identity")
    rm = tensor_from_op(r)
    ric, scal = ricci_contract(r)
    g = identity_sym2(n)
    ric0 = ric.traceless()
    scal_part = (scal / (2.0 * (n - 1) * n)) * kulkarni_nomizu(g, g).array
    ric_part = kulkarni_nomizu(g, ric0).array / (n - 2.0)
    weyl = CurvTensor(rm.array - scal_part - ric_part)
    schouten = Sym2(
        -scal / (2.0 * (n - 1) * (n - 2)) * g.mat + ric.mat / (n - 2.0)
    )
    return CurvDecomposition(scal=scal, ric0=ric0, weyl=weyl, schouten=schouten)


@lru_cache(maxsize=None)
def _round_robin(size):
    """Brent-Luk round-robin schedule for one Jacobi sweep over size indices.

    The chess-tournament rotation keeps player 0 fixed and turns the rest one
    seat per round; an odd size gets a dummy player whose pairs are dropped.
    A round of k disjoint pairs (p, q), p < q, is stored as the index array
    P ++ Q and the flat indices of the entries (p, q), (p, p) and (q, q) in
    an N x N matrix.  The rounds together cover every p < q exactly once.
    """
    m = size + size % 2
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [
            (min(i, j), max(i, j))
            for i, j in zip(seats[: m // 2], reversed(seats[m // 2 :]))
            if max(i, j) < size
        ]
        p = np.array([i for i, _ in pairs])
        q = np.array([j for _, j in pairs])
        flat = np.concatenate((p * size + q, p * (size + 1), q * (size + 1)))
        rounds.append((_freeze(np.concatenate((p, q))), _freeze(flat)))
        seats = seats[:1] + seats[-1:] + seats[1:-1]
    return tuple(rounds)


def jacobi_eigh_batch(mats, tol_factor=1e-13, max_sweeps=100):
    """Diagonalize a batch of symmetric matrices by round-robin Jacobi sweeps.

    Each sweep follows the Brent-Luk round-robin ordering: every round
    rotates up to N/2 disjoint pairs (p, q) at once, and the rounds of a
    sweep annihilate every off-diagonal pair exactly once.  The rotation is
    elementwise across the batch, so a batch row is bit-identical to the
    single-matrix call.  Sweeps run until every matrix has max off-diagonal
    entry at most tol_factor times its Frobenius norm.  Eigenvalues come back
    ascending with ties kept in original column order; eigenvector columns
    are aligned.
    """
    a = np.array(mats, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected shape (batch, N, N), got {a.shape}")
    b, size, _ = a.shape
    if size == 1:
        return a[:, :, 0].copy(), np.ones_like(a)
    thresh = tol_factor * np.sqrt(np.sum(a * a, axis=(1, 2)))
    # work with the batch index last, so every gathered row or column is a
    # run of contiguous batch entries, and with the eigenvectors stacked
    # below the matrix, so one column update turns both
    av = np.concatenate((a, np.broadcast_to(np.eye(size), a.shape)), axis=1)
    av = np.ascontiguousarray(av.transpose(1, 2, 0))
    a, v = av[:size], av[size:]
    flat = av.reshape(2 * size * size, b)
    diag = np.arange(size)

    def _active():
        offdiag = np.abs(a)
        offdiag[diag, diag] = 0.0
        return offdiag.max(axis=(0, 1)) > thresh

    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_sweeps):
            # converged matrices stop rotating, so each matrix sees exactly
            # the sweeps it would see alone and batching is bit-identical
            active = _active()
            if not active.any():
                break
            for pq, entries in _round_robin(size):
                k = pq.size // 2
                p, q = pq[:k], pq[k:]
                pivots = flat[entries]
                apq, app, aqq = pivots[:k], pivots[k : 2 * k], pivots[2 * k :]
                if not apq[:, active].any():
                    continue
                theta = (aqq - app) / (2.0 * apq)
                t = np.where(theta >= 0.0, 1.0, -1.0) / (
                    np.abs(theta) + np.sqrt(theta * theta + 1.0)
                )
                t = np.where(active & (apq != 0.0), t, 0.0)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                # the pairs are disjoint, so their rotations commute: turn
                # all their rows at once, then all their columns
                cr, sr = c[:, None, :], s[:, None, :]
                rows = a[pq]
                rp, rq = rows[:k], rows[k:]
                a[p] = cr * rp - sr * rq
                a[q] = sr * rp + cr * rq
                cols = av[:, pq]
                cp, cq = cols[:, :k], cols[:, k:]
                av[:, p] = c * cp - s * cq
                av[:, q] = s * cp + c * cq
    if _active().any():
        raise RuntimeError("Jacobi iteration did not converge")
    vals = a[diag, diag].T
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    vecs = np.take_along_axis(v.transpose(2, 0, 1), order[:, None, :], axis=2)
    return vals, vecs


def jacobi_eigh(mat, tol_factor=1e-13, max_sweeps=100):
    """Single-matrix front end for the round-robin Jacobi solver."""
    vals, vecs = jacobi_eigh_batch(
        np.asarray(mat, dtype=float)[None, :, :], tol_factor, max_sweeps
    )
    return vals[0], vecs[0]


class Spectrum:
    """Ascending eigenvalues with an aligned orthonormal eigenbasis."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues, eigenvectors):
        vals = np.array(eigenvalues, dtype=float).reshape(-1)
        vecs = np.array(eigenvectors, dtype=float)
        if vecs.shape != (vals.size, vals.size):
            raise ValueError("eigenvector matrix shape does not match eigenvalues")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")
        self.eigenvalues = _freeze(vals)
        self.eigenvectors = _freeze(vecs)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def lowest_sum(self, k) -> float:
        k = int(k)
        if not 1 <= k <= self.size:
            raise ValueError(f"k must be in 1..{self.size}, got {k}")
        return float(np.sum(self.eigenvalues[:k]))

    def __repr__(self):
        return f"Spectrum({np.array2string(self.eigenvalues, precision=4)})"


def spectrum(r: CurvatureOperator) -> Spectrum:
    vals, vecs = jacobi_eigh(r.mat)
    return Spectrum(vals, vecs)


def wedge_coordinates(vec_a, vec_b, n):
    """Wedge coordinates of a^b over the lexicographic pair basis."""
    i, j = _pair_index(n)
    return vec_a[i] * vec_b[j] - vec_a[j] * vec_b[i]


def complex_sectional(r: CurvatureOperator, z, w) -> float:
    """Complex sectional curvature <R(z^w), conj(z^w)>.

    z and w are vectors in complexified R^n; the operator extends bilinearly
    to complexified wedge space, and pairing against the conjugate makes the
    value real.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    if z.size != r.n or w.size != r.n:
        raise ValueError(f"expected vectors of length {r.n}")
    zeta = wedge_coordinates(z, w, r.n)
    if not np.any(zeta):
        raise ValueError("z and w have zero wedge")
    value = np.conj(zeta) @ (r.mat @ zeta)
    return float(value.real)
