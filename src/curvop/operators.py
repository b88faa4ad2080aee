"""Algebraic curvature operators on the second exterior power.

A curvature operator is a symmetric endomorphism of wedge space in the
lexicographic basis {e_i^e_j, i < j}; tensors.py spreads it to its
(0,4)-tensor.  This module works on operator matrices, stacked along
leading axes where a suite batches them.  For every index set
i < j < k < l it reads the Bianchi sum R_ij,kl - R_ik,jl + R_il,jk by one
cached gather: a third of it, entered at the three pairings, is the fully
alternating part, which the projection onto the Bianchi subspace removes,
and the largest of them certifies the Bianchi identity.  On a certified
operator it performs the orthogonal scalar / traceless-Ricci / Weyl
decomposition, with the Ricci tensor a signed gather-and-sum of
R_(ia),(ja).  It also diagonalizes by Jacobi rotations in round-robin
(Brent-Luk) order, N/2 disjoint rotations per vectorized step, under the
threshold rule: a pair rotates only while an entry of it is above the
stopping threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensors import (
    CurvTensor,
    Sym2,
    _IDENTITY_TOL,
    _freeze,
    _integer,
    _kn,
    _ops_from_tensors,
    _pair_index,
    _perm_signs,
    _require_finite,
    _symmetric_part,
    _symmetrized,
    _tensors_from_ops,
    _traceless,
    _tuple_index_map,
    check_dimension,
    increasing_tuples,
    wedge_count,
    wedge_pairs,
)


class CurvatureOperator:
    """Symmetric operator on wedge space, stored exactly symmetric.

    bianchi_certified says whether the first Bianchi identity holds; it is
    detected from the stored matrix on first read and cached, never assumed.
    """

    __slots__ = ("n", "N", "mat", "_bianchi")

    def __init__(self, n, mat):
        n = check_dimension(n)
        m = np.array(mat, dtype=float)
        want = wedge_count(n)
        if m.shape != (want, want):
            raise ValueError(f"expected a {want}x{want} matrix for n={n}, got {m.shape}")
        _require_finite(m, "operator entries")
        m = _symmetric_part(m, "operator matrix")
        self.n = n
        self.N = want
        self.mat = _freeze(m)
        self._bianchi = None

    @property
    def bianchi_certified(self) -> bool:
        """Whether the Bianchi sums of the matrix vanish."""
        if self._bianchi is None:
            self._bianchi = bool(_bianchi_certified(self.mat, self.n))
        return self._bianchi

    def norm_sq(self) -> float:
        """Squared norm as an element of the symmetric square of wedge space."""
        return float(np.sum(self.mat * self.mat))

    def traceless(self) -> "CurvatureOperator":
        return CurvatureOperator(self.n, _traceless(self.mat))

    def __repr__(self):
        return f"CurvatureOperator(n={self.n}, bianchi={self.bianchi_certified})"


def identity_operator(n) -> CurvatureOperator:
    """The unit-sphere curvature operator (half the metric KN square)."""
    return CurvatureOperator(n, np.eye(wedge_count(n)))


def _plane_op(n, value) -> CurvatureOperator:
    """The operator diagonal in the wedge basis with entry value(i, j) on
    e_i^e_j; a decomposable eigenbasis satisfies the first Bianchi identity."""
    return CurvatureOperator(n, np.diag([value(i, j) for i, j in wedge_pairs(n)]))


def op_from_tensor(rm: CurvTensor) -> CurvatureOperator:
    """Wedge-basis matrix of a (0,4)-tensor with pair symmetries."""
    if not (rm.pair_skew and rm.pair_symmetric):
        raise ValueError("tensor lacks the pair symmetries of a curvature tensor")
    return CurvatureOperator(rm.n, _ops_from_tensors(rm.array, rm.n))


def tensor_from_op(r: CurvatureOperator) -> CurvTensor:
    """(0,4)-tensor with Rm(x,y,z,w) = <R(x^y), z^w>."""
    return CurvTensor(_tensors_from_ops(r.mat, r.n))


def alternation(arr: np.ndarray) -> np.ndarray:
    """Full signed average over the 24 slot permutations of a (0,4)-array.

    The library's own paths take the Bianchi part on operator coordinates;
    this direct average stays as the independent oracle the tests compare
    them with and as the reference kernel the benchmark times.
    """
    out = np.zeros_like(arr)
    for perm, sign in zip(*_perm_signs(4)):
        out += sign * np.transpose(arr, perm)
    return out / 24.0


@lru_cache(maxsize=None)
def _quad_pairings(n):
    """Flat positions in an N x N operator matrix of the pairings (ij, kl),
    (ik, jl), (il, jk) of every index set i < j < k < l, shaped
    (3, C(n, 4)), and the positions of their transposes."""
    index = _tuple_index_map(n, 2)
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


def _bianchi_sums(mats, n):
    """R_ij,kl - R_ik,jl + R_il,jk of stacked symmetric operator matrices on
    each index set i < j < k < l, shaped (..., C(n, 4)).  On the
    (0,4)-tensor every cyclic sum of the first Bianchi identity over four
    distinct indices is one of these up to sign and the order of its three
    terms, and the sums over repeated indices vanish exactly."""
    pos, _ = _quad_pairings(n)
    flat = mats.reshape(mats.shape[:-2] + (-1,))
    return flat[..., pos[0]] - flat[..., pos[1]] + flat[..., pos[2]]


def _bianchi_certified(mats, n):
    """Bianchi certificates of stacked symmetric operator matrices: whether
    each largest |_bianchi_sums| is at most _IDENTITY_TOL times max(1, the
    matrix's largest entry), the bound tensors._bianchi_holds puts on the
    (0,4)-tensor's residual."""
    scale = np.maximum(1.0, np.abs(mats).max(axis=(-2, -1)))
    return np.abs(_bianchi_sums(mats, n)).max(axis=-1, initial=0.0) <= _IDENTITY_TOL * scale


def _alternating_parts(mats, n):
    """Fully alternating parts of stacked symmetric operator matrices.

    On a tensor with the pair symmetries, alternation over the 24 slot
    permutations leaves b = _bianchi_sums / 3 on each index set
    i < j < k < l, entered with signs +, -, + at its three pairings and
    their transposes; every entry whose pairs share an index vanishes.
    """
    pos, swapped = _quad_pairings(n)
    quad = _bianchi_sums(mats, n) / 3.0
    signed = quad[..., None, :] * _PAIRING_SIGNS
    out = np.zeros(mats.shape[:-2] + (mats.shape[-1] ** 2,))
    out[..., pos] = signed
    out[..., swapped] = signed
    return out.reshape(mats.shape)


def bianchi_split(r: CurvatureOperator):
    """Split into the Bianchi part and the fully alternating part.

    Returns (r_b, lam4) with r_b a Bianchi CurvatureOperator and lam4 the
    alternating (0,4)-tensor; as tensors, input = r_b + lam4 and the two are
    orthogonal.
    """
    alt = _alternating_parts(r.mat, r.n)
    return CurvatureOperator(r.n, r.mat - alt), CurvTensor(_tensors_from_ops(alt, r.n))


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
    scal, ric, ric0, weyl, _ = _decompose(r.mat, n)
    schouten = Sym2(-scal / (2.0 * (n - 1) * (n - 2)) * np.eye(n) + ric / (n - 2.0))
    weyl = CurvTensor(_tensors_from_ops(weyl, n))
    return CurvDecomposition(scal=float(scal), ric0=Sym2(ric0), weyl=weyl, schouten=schouten)


@lru_cache(maxsize=None)
def _ricci_gather(n):
    """Flat positions in an N x N operator matrix of R_(ia),(ja), shaped
    (n, n, n) as [a, i, j], and the signs that orient the pairs ia and ja;
    sign 0 where a is i or j, whose terms vanish."""
    index = _tuple_index_map(n, 2)
    size = wedge_count(n)
    pos = np.zeros((n, n, n), dtype=np.intp)
    sign = np.zeros((n, n, n))
    for a in range(n):
        for i in range(n):
            for j in range(n):
                if a not in (i, j):
                    pos[a, i, j] = index[min(i, a), max(i, a)] * size + index[min(j, a), max(j, a)]
                    sign[a, i, j] = (1.0 if i < a else -1.0) * (1.0 if j < a else -1.0)
    return _freeze(pos), _freeze(sign)


def _ricci(mats, n):
    """Ricci contractions sum_a R(e_i, e_a, e_j, e_a) of stacked operator
    matrices, added in the order a = 0, 1, ..., n - 1 onto zero, which is
    the order einsum("...iaja->...ij") adds the (0,4)-tensor's entries in."""
    pos, sign = _ricci_gather(n)
    terms = mats.reshape(mats.shape[:-2] + (-1,))[..., pos] * sign
    ric = np.zeros(mats.shape[:-2] + (n, n))
    for a in range(n):
        ric += terms[..., a, :, :]
    return ric


def _decompose(mats, n):
    """(scal, ric, ric0, weyl, kn_ric0) of stacked operator matrices of
    Bianchi operators, n >= 3: the scalar curvature, the Ricci and traceless
    Ricci tensors, and on operator coordinates the Weyl tensor
    R - scal/(2(n-1)n) KN(g, g) - KN(g, ric0)/(n-2) and the KN(g, ric0) it
    is built from.  KN(g, g) is exactly 2I there.  Certifies the matrices
    first: raises ValueError unless each passes _bianchi_certified."""
    if not np.all(_bianchi_certified(mats, n)):
        raise ValueError("operator does not satisfy the first Bianchi identity")
    ric = _symmetrized(_ricci(mats, n))
    scal = np.trace(ric, axis1=-2, axis2=-1)
    ric0 = _traceless(ric)
    scal_part = (scal / (2.0 * (n - 1) * n))[..., None, None] * (2.0 * np.eye(wedge_count(n)))
    kn_ric0 = _kn(np.eye(n), ric0)
    weyl = mats - scal_part - kn_ric0 / (n - 2.0)
    return scal, ric, ric0, weyl, kn_ric0


# Jacobi stops once every off-diagonal entry is at most _JACOBI_TOL times the
# matrix's Frobenius norm, and gives up after _JACOBI_SWEEPS sweeps.
_JACOBI_TOL = 1e-13
_JACOBI_SWEEPS = 100


@lru_cache(maxsize=None)
def _round_robin(size):
    """Brent-Luk round-robin schedule for one Jacobi sweep over size indices.

    The chess-tournament rotation keeps player 0 fixed and turns the rest one
    seat per round; an odd size gets a dummy player whose pairs are dropped.
    A round of k disjoint pairs (p, q), p < q, is stored as the index array
    P ++ Q and the flat indices of the entries (p, q), (q, p), (p, p) and
    (q, q) in an N x N matrix.  The rounds together cover every p < q
    exactly once.
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
        flat = np.concatenate((p * size + q, q * size + p, p * (size + 1), q * (size + 1)))
        rounds.append((_freeze(np.concatenate((p, q))), _freeze(flat)))
        seats = seats[:1] + seats[-1:] + seats[1:-1]
    return tuple(rounds)


def jacobi_eigh_batch(mats):
    """Diagonalize a batch of symmetric matrices by round-robin Jacobi sweeps.

    Each sweep follows the Brent-Luk round-robin ordering: every round
    rotates up to N/2 disjoint pairs (p, q) at once, and the rounds of a
    sweep visit every off-diagonal pair exactly once.  Sweeps run until
    every matrix has max off-diagonal entry at most thresh, _JACOBI_TOL
    times its Frobenius norm.  Under the threshold rule (Rutishauser 1966)
    a visit rotates the pair only while max(|a_pq|, |a_qp|) exceeds thresh:
    inside an eigenvalue cluster a_pp - a_qq and a_pq are rounding noise,
    and rotating such a pair by its arbitrary angle spreads annihilated
    entries back in, which made degenerate spectra converge only linearly.
    The stopping test is unchanged.  The rotation is elementwise across the
    batch, so a batch row is bit-identical to the single-matrix call.
    Eigenvalues come back
    ascending with ties kept in original column order; eigenvector columns
    are aligned.  Raises ValueError when a matrix is not symmetric to
    thresh, an entry is not finite or a rotation leaves the float range.
    """
    a = np.array(mats, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected shape (batch, N, N), got {a.shape}")
    b, size, _ = a.shape
    if size == 1:
        return a[:, :, 0].copy(), np.ones_like(a)
    # the Frobenius norm through a / unit, unit the power of two with the
    # largest entry in [unit, 2 unit): no square overflows, and for ordinary
    # entries every product is the unscaled one moved by an exact power of
    # two, so thresh has the bits of _JACOBI_TOL * sqrt(sum(a * a)) and
    # scales exactly with the matrix
    unit = np.ldexp(1.0, np.frexp(np.abs(a).max(axis=(1, 2)))[1] - 1)
    scaled = a / unit[:, None, None]
    scaled_thresh = _JACOBI_TOL * np.sqrt(np.sum(scaled * scaled, axis=(1, 2)))
    thresh = unit * scaled_thresh
    # rotations cannot remove a skew part, so a matrix with some
    # |a_pq - a_qp| above thresh would only run out of sweeps.  Compared
    # a / unit against thresh / unit: the scaled entries, below 2 in
    # magnitude, cannot overflow their difference.  A non-finite entry
    # makes the threshold non-finite, passes this test and is caught by
    # the check after the sweeps
    with np.errstate(invalid="ignore"):
        skew = np.abs(scaled - scaled.swapaxes(1, 2)).max(axis=(1, 2))
    if np.any(skew > scaled_thresh):
        raise ValueError("matrix is not symmetric: some |a_pq - a_qp| exceeds the Jacobi stopping threshold")
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

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_JACOBI_SWEEPS):
            if not _active().any():
                break
            for pq, entries in _round_robin(size):
                k = pq.size // 2
                p, q = pq[:k], pq[k:]
                pivots = flat[entries]
                apq, aqp = pivots[:k], pivots[k : 2 * k]
                app, aqq = pivots[2 * k : 3 * k], pivots[3 * k :]
                # read both mirror entries: the row and column updates
                # leave them a few ulps apart, and one may sit above thresh
                # while the other does not.  A converged matrix has no pair
                # above thresh and rotates no more, as it would alone
                rotate = np.maximum(np.abs(apq), np.abs(aqp)) > thresh
                if not rotate.any():
                    continue
                theta = (aqq - app) / (2.0 * apq)
                t = np.where(theta >= 0.0, 1.0, -1.0) / (
                    np.abs(theta) + np.sqrt(theta * theta + 1.0)
                )
                t = np.where(rotate & (apq != 0.0), t, 0.0)
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
    # a non-finite entry stops every rotation of its matrix and is caught
    # here too
    if not np.isfinite(av).all():
        raise ValueError("matrix entries or their Jacobi rotations left the float range")
    if _active().any():
        raise RuntimeError("Jacobi iteration did not converge")
    vals = a[diag, diag].T
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    vecs = np.take_along_axis(v.transpose(2, 0, 1), order[:, None, :], axis=2)
    return vals, vecs


def jacobi_eigh(mat):
    """Single-matrix front end for the round-robin Jacobi solver."""
    vals, vecs = jacobi_eigh_batch(np.asarray(mat, dtype=float)[None, :, :])
    return vals[0], vecs[0]


class Spectrum:
    """Ascending eigenvalues with an aligned orthonormal eigenbasis."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues, eigenvectors):
        vals = np.array(eigenvalues, dtype=float).reshape(-1)
        vecs = np.array(eigenvectors, dtype=float)
        if vecs.shape != (vals.size, vals.size):
            raise ValueError("eigenvector matrix shape does not match eigenvalues")
        # a NaN would pass the order check below, as every comparison with
        # it is False
        _require_finite(vals, "eigenvalues")
        _require_finite(vecs, "eigenvectors")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")
        self.eigenvalues = _freeze(vals)
        self.eigenvectors = _freeze(vecs)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def lowest_sum(self, k) -> float:
        k = _integer(k, "k", 1, self.size)
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
    _require_finite((z, w), "vector entries")
    zeta = wedge_coordinates(z, w, r.n)
    if not np.any(zeta):
        raise ValueError("z and w have zero wedge")
    value = np.conj(zeta) @ (r.mat @ zeta)
    return float(value.real)
