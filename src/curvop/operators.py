"""Algebraic curvature operators on the second exterior power.

A curvature operator is a symmetric endomorphism of wedge space in the
lexicographic basis {e_i^e_j, i < j}.  This module converts between the
operator and (0,4)-tensor pictures, projects onto the Bianchi subspace by
one cached gather over the index sets i < j < k < l in operator
coordinates, certifies the Bianchi identity by the residual of the
(0,4)-tensor, contracts to Ricci and scalar parts, performs the orthogonal
scalar / traceless-Ricci / Weyl decomposition, and diagonalizes by Jacobi
rotations in round-robin (Brent-Luk) order, N/2 disjoint rotations per
vectorized step.  The conversions, the projection, the certificate and the
decomposition also take operator matrices stacked along leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensors import (
    CurvTensor,
    Sym2,
    _bianchi_holds,
    _freeze,
    _kn,
    _pair_index,
    _perm_signs,
    _require_finite,
    _symmetrized,
    _traceless,
    _wedge_index_map,
    check_dimension,
    increasing_tuples,
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
        m = _symmetrized(m)
        self.n = n
        self.N = want
        self.mat = _freeze(m)
        self.bianchi_certified = bianchi

    def certify_bianchi(self, tol=1e-12) -> bool:
        """Check the Bianchi flag by the cyclic residual of the (0,4)-tensor
        and cache the result."""
        ok = bool(_bianchi_certified(self.mat, self.n, tol))
        self.bianchi_certified = ok
        return ok

    def norm_sq(self) -> float:
        """Squared norm as an element of the symmetric square of wedge space."""
        return float(np.sum(self.mat * self.mat))

    def traceless(self) -> "CurvatureOperator":
        return CurvatureOperator(self.n, _traceless(self.mat))

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
    return CurvTensor(_tensors_from_ops(r.mat, r.n))


def _tensors_from_ops(mats, n):
    """(0,4)-arrays (..., n, n, n, n) of stacked operator matrices."""
    w = _wedge_patterns(n).reshape(-1, n * n)
    return (w.T @ (mats @ w)).reshape(mats.shape[:-2] + (n,) * 4)


def _bianchi_certified(mats, n, tol=1e-12):
    """Bianchi certificates of stacked operator matrices: the cyclic
    residual of each (0,4)-tensor within tol of its largest entry."""
    return _bianchi_holds(_tensors_from_ops(mats, n), tol)


def alternation(arr: np.ndarray) -> np.ndarray:
    """Full signed average over the 24 slot permutations of a (0,4)-array."""
    out = np.zeros_like(arr)
    for perm, sign in _perm_signs(4):
        out += sign * np.transpose(arr, perm)
    return out / 24.0


@lru_cache(maxsize=None)
def _quad_pairings(n):
    """Flat positions in an N x N operator matrix of the pairings (ij, kl),
    (ik, jl), (il, jk) of every index set i < j < k < l, shaped
    (3, C(n, 4)), and the positions of their transposes."""
    index = _wedge_index_map(n)
    size = wedge_count(n)
    quads = increasing_tuples(n, 4)
    pos = np.array(
        [
            [index[(i, j)] * size + index[(k, l)] for i, j, k, l in quads],
            [index[(i, k)] * size + index[(j, l)] for i, j, k, l in quads],
            [index[(i, l)] * size + index[(j, k)] for i, j, k, l in quads],
        ],
        dtype=np.intp,
    )
    return _freeze(pos), _freeze(pos % size * size + pos // size)


_PAIRING_SIGNS = _freeze(np.array([[1.0], [-1.0], [1.0]]))


def _alternating_parts(mats, n):
    """Fully alternating parts of stacked symmetric operator matrices.

    On a tensor with the pair symmetries, alternation over the 24 slot
    permutations leaves b = (R_ij,kl - R_ik,jl + R_il,jk) / 3 on each index
    set i < j < k < l, entered with signs +, -, + at its three pairings and
    their transposes; every entry whose pairs share an index vanishes.
    """
    pos, swapped = _quad_pairings(n)
    flat = mats.reshape(mats.shape[:-2] + (-1,))
    quad = (flat[..., pos[0]] - flat[..., pos[1]] + flat[..., pos[2]]) / 3.0
    signed = quad[..., None, :] * _PAIRING_SIGNS
    out = np.zeros_like(flat)
    out[..., pos] = signed
    out[..., swapped] = signed
    return out.reshape(mats.shape)


def bianchi_split(r: CurvatureOperator):
    """Split into the Bianchi part and the fully alternating part.

    Returns (r_b, lam4) with r_b a certified CurvatureOperator and lam4 the
    alternating (0,4)-tensor; as tensors, input = r_b + lam4 and the two are
    orthogonal.
    """
    alt = _alternating_parts(r.mat, r.n)
    r_b = CurvatureOperator(r.n, r.mat - alt)
    r_b.certify_bianchi()
    return r_b, CurvTensor(_tensors_from_ops(alt, r.n))


def ricci_contract(r: CurvatureOperator):
    """Ricci tensor ric(X,Y) = sum_a Rm(X, e_a, Y, e_a) and its trace."""
    ric, scal = _riccis(_tensors_from_ops(r.mat, r.n))
    return Sym2(ric), float(scal)


def _riccis(rm):
    """Ricci tensors and scalar curvatures of stacked (0,4)-arrays."""
    ric = _symmetrized(np.einsum("...iaja->...ij", rm))
    return ric, np.trace(ric, axis1=-2, axis2=-1)


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
    scal, ric, ric0, weyl = _decompose(r.mat, n)
    schouten = Sym2(-scal / (2.0 * (n - 1) * (n - 2)) * np.eye(n) + ric / (n - 2.0))
    return CurvDecomposition(
        scal=float(scal), ric0=Sym2(ric0), weyl=CurvTensor(weyl), schouten=schouten
    )


def _decompose(mats, n):
    """(scal, ric, ric0, weyl) arrays of stacked Bianchi operator matrices,
    n >= 3: the scalar curvature, the Ricci and traceless Ricci tensors and
    the Weyl tensor rm - scal/(2(n-1)n) KN(g, g) - KN(g, ric0)/(n-2)."""
    rm = _tensors_from_ops(mats, n)
    ric, scal = _riccis(rm)
    ric0 = _traceless(ric)
    g = np.eye(n)
    scal_part = (scal / (2.0 * (n - 1) * n))[..., None, None, None, None] * _kn(g, g)
    weyl = rm - scal_part - _kn(g, ric0) / (n - 2.0)
    return scal, ric, ric0, weyl


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
