"""The derivation action of so(n) on tensors and the machinery built on it.

so(n) is identified with wedge space by (x^y)z = g(x,z)y - g(y,z)x together
with the inner product <A,B> = tr(A^T B)/2, which makes the lexicographic
wedge basis orthonormal.  An element L acts on a (0,k)-tensor by

    (L T)(X_1, ..., X_k) = - sum_i T(X_1, ..., L X_i, ..., X_k)

and on a curvature operator by the induced commutator.

Every kind is a k-slot tensor over compact coordinates of Lambda^p: (0,k)-,
symmetric and curvature tensors are k slots over Lambda^1, p-forms one slot
over Lambda^p and curvature operators two slots over Lambda^2.  Each basis
wedge acts on Lambda^p as a signed partial permutation of the coordinates,
tabulated once per (n, p); a general L acts slot by slot through the matrix
those permutations span.  The hat tensor collects the action of the whole
wedge basis; curvature terms and the Ricci curvature of a tensor are
bilinear expressions in those blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import CurvatureOperator
from .tensors import (
    CurvTensor,
    PForm,
    Sym2,
    Tensor0k,
    _freeze,
    _require_finite,
    _tuple_index_map,
    check_dimension,
    increasing_tuples,
    wedge_count,
    wedge_index,
    wedge_pairs,
)


class SoElement:
    """Element of so(n) in lexicographic wedge coordinates."""

    __slots__ = ("n", "comps")

    def __init__(self, n, comps):
        n = check_dimension(n)
        comps = np.array(comps, dtype=float).reshape(-1)
        if comps.size != wedge_count(n):
            raise ValueError(
                f"expected {wedge_count(n)} coordinates for n={n}, got {comps.size}"
            )
        _require_finite(comps, "so(n) coordinates")
        self.n = n
        self.comps = _freeze(comps)

    @classmethod
    def from_matrix(cls, mat, tol=1e-9):
        m = np.asarray(mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m + m.T).max()) > tol * scale:
            raise ValueError("matrix is not skew-symmetric")
        n = m.shape[0]
        comps = [(m[j, i] - m[i, j]) / 2.0 for i, j in wedge_pairs(n)]
        return cls(n, comps)

    @classmethod
    def from_vectors(cls, x, y):
        """The wedge x^y; its matrix sends z to g(x,z)y - g(y,z)x."""
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.size != y.size:
            raise ValueError("vectors must have equal length")
        n = x.size
        comps = [x[i] * y[j] - x[j] * y[i] for i, j in wedge_pairs(n)]
        return cls(n, comps)

    def matrix(self) -> np.ndarray:
        """Skew matrix acting on column vectors."""
        return _action_matrix(self, 1)

    def norm_sq(self) -> float:
        return float(self.comps @ self.comps)

    def __repr__(self):
        return f"SoElement(n={self.n})"


def wedge_element(n, i, j) -> SoElement:
    """Basis element e_i^e_j; order of i and j fixes the sign."""
    if i == j:
        raise ValueError("wedge of equal indices vanishes")
    comps = np.zeros(wedge_count(n))
    if i < j:
        comps[wedge_index(n, i, j)] = 1.0
    else:
        comps[wedge_index(n, j, i)] = -1.0
    return SoElement(n, comps)


# -- the wedge table and the kinds as slots over it --------------------------

@lru_cache(maxsize=None)
def _wedge_table(n, p):
    """The action of each basis wedge on compact p-form coordinates.

    Returns (tgt, src, sgn), each shaped (pairs, m) with m = 2 C(n-2, p-1):
    e_a^e_b (a < b) sends coordinate src to coordinate tgt with sign sgn and
    kills the rest.  A target index set holds exactly one of a, b and its
    source swaps that one for the other; the sign is (-1)^c, c the number of
    members strictly between a and b, negated when the target holds a.
    Entries run in increasing tgt, so p = 1 is the vector action, -T[b] at a
    and +T[a] at b, and p = 2 the adjoint action on wedge coordinates.
    """
    index = _tuple_index_map(n, p)
    tgt, src, sgn = [], [], []
    for a, b in wedge_pairs(n):
        for target in increasing_tuples(n, p):
            if (a in target) == (b in target):
                continue
            gone, come = (a, b) if a in target else (b, a)
            sign = (-1.0) ** sum(1 for x in target if a < x < b)
            tgt.append(index[target])
            src.append(index[tuple(sorted(set(target) - {gone} | {come}))])
            sgn.append(-sign if gone == a else sign)
    shape = (wedge_count(n), 2 * math.comb(n - 2, p - 1))
    return (
        _freeze(np.array(tgt, dtype=np.intp).reshape(shape)),
        _freeze(np.array(src, dtype=np.intp).reshape(shape)),
        _freeze(np.array(sgn).reshape(shape)),
    )


@lru_cache(maxsize=None)
def _incidence(n, p):
    """Signed incidence of coordinates and table entries, entries ordered
    by their position within a pair, then by pair: the table read
    backwards as a (dim, pairs * m) matrix."""
    tgt, _, sgn = _wedge_table(n, p)
    out = np.zeros((math.comb(n, p), tgt.size))
    out[tgt.T.reshape(-1), np.arange(tgt.size)] = sgn.T.reshape(-1)
    return _freeze(out)


def _action_matrix(lam, p):
    """Matrix of lam on compact p-form coordinates, A[tgt, src] = lam sgn."""
    tgt, src, sgn = _wedge_table(lam.n, p)
    size = math.comb(lam.n, p)
    out = np.zeros((size, size))
    out[tgt, src] = lam.comps[:, None] * sgn
    return out


def _layout(t):
    """(coords, p, k): t's values as a k-slot tensor over Lambda^p."""
    if isinstance(t, PForm):
        return t.comps, t.p, 1
    if isinstance(t, CurvatureOperator):
        return t.mat, 2, 2
    if isinstance(t, Sym2):
        return t.mat, 1, 2
    if isinstance(t, (Tensor0k, CurvTensor)):
        return t.array, 1, t.array.ndim
    raise TypeError(f"unsupported kind {type(t).__name__}")


def _rebuild(t, values):
    """A tensor of t's kind from values in the coordinates of _layout(t)."""
    values = np.reshape(values, _layout(t)[0].shape)
    if isinstance(t, PForm):
        return PForm(t.n, t.p, values)
    if isinstance(t, CurvatureOperator):
        return CurvatureOperator(t.n, values, bianchi=t.bianchi_certified)
    if isinstance(t, Sym2):
        return Sym2((values + values.T) / 2.0)
    return type(t)(values)


# -- the action of a general element -----------------------------------------

def _act(lam, t):
    """lam acting on every slot of t through its coordinate matrix."""
    if lam.n != t.n:
        raise ValueError(f"dimension mismatch: {lam.n} vs {t.n}")
    coords, p, k = _layout(t)
    mat = _action_matrix(lam, p)
    out = np.zeros_like(coords)
    last = k - 1
    for slot in range(k):
        moved = coords if slot == last else np.moveaxis(coords, slot, -1)
        prod = moved @ mat
        out -= prod if slot == last else np.moveaxis(prod, -1, slot)
    return _rebuild(t, out)


def ad_matrix(lam: SoElement) -> np.ndarray:
    """Matrix of the action of lam on wedge coordinates."""
    return _action_matrix(lam, 2)


def act_on_operator(lam: SoElement, r: CurvatureOperator) -> CurvatureOperator:
    """Derivation action on a symmetric wedge-space operator.

    (L R)(A, B) = -R(L A, B) - R(A, L B), which is the commutator of the
    induced wedge-coordinate matrix with the operator matrix.  The action
    preserves the Bianchi subspace, so the certificate carries over.
    """
    return _act(lam, r)


def so_act(lam: SoElement, t):
    """Derivation action of lam on a tensor, preserving its kind."""
    out = _act(lam, t)
    if isinstance(t, CurvTensor) and t.bianchi and not out.bianchi:
        raise AssertionError("action failed to preserve the Bianchi identity")
    return out


# -- hat tensors -------------------------------------------------------------

def _slot_views(flat, dim, k):
    """Per slot, a view of flat's last axis (dim**k entries) as
    (dim, before, after), the slot's index in front."""
    lead = flat.shape[:-1]
    for slot in range(k):
        view = flat.reshape(lead + (dim ** slot, dim, dim ** (k - slot - 1)))
        yield np.swapaxes(view, -3, -2)


def _block_rows(t) -> np.ndarray:
    """Stack of flattened wedge-basis action blocks, one row per pair: per
    slot, one gather through the table and one scatter into the rows."""
    coords, p, k = _layout(t)
    tgt, src, sgn = _wedge_table(t.n, p)
    pair = np.arange(tgt.shape[0])[:, None]
    out = np.zeros((tgt.shape[0], coords.size))
    dim = coords.shape[0]
    views = zip(_slot_views(out, dim, k), _slot_views(coords.reshape(-1), dim, k))
    for slot, (moved_out, moved_in) in enumerate(views):
        image = moved_in[src]
        image *= sgn[:, :, None, None]
        # a pair never sends two coordinates to one, so the first slot
        # can be assigned instead of accumulated
        if slot == 0:
            moved_out[pair, tgt] = image
        else:
            moved_out[pair, tgt] += image
    return out


def _sum_blocks(t, rows) -> np.ndarray:
    """sum_c Xi_c rows[c] in t's coordinates, for rows shaped like
    _block_rows(t): the table read backwards.

    Entries of different pairs land on the same coordinate, so the scatter
    is a product with the signed incidence of coordinates and entries.
    """
    coords, p, k = _layout(t)
    _, src, _ = _wedge_table(t.n, p)
    incidence = _incidence(t.n, p)
    pair = np.arange(src.shape[0])[None, :]
    out = np.zeros(coords.size)
    dim = coords.shape[0]
    for moved_out, moved_rows in zip(_slot_views(out, dim, k), _slot_views(rows, dim, k)):
        gathered = moved_rows[pair, src.T].reshape(src.size, out.size // dim)
        moved_out += (incidence @ gathered).reshape(moved_out.shape)
    return out.reshape(coords.shape)


@dataclass(frozen=True)
class HatTensor:
    """Wedge-valued tensor collecting the action of every basis element.

    blocks[alpha] is Xi_alpha acting on the source; pairing the wedge leg
    with any L recovers the action of L by linearity.
    """

    n: int
    blocks: tuple

    def norm_sq(self) -> float:
        return float(sum(b.norm_sq() for b in self.blocks))

    def pair_with(self, lam: SoElement):
        """g(L, hat(T)( . )) as a tensor of the source kind."""
        if lam.n != self.n:
            raise ValueError(f"dimension mismatch: {lam.n} vs {self.n}")
        values = sum(c * _layout(b)[0] for c, b in zip(lam.comps, self.blocks))
        return _rebuild(self.blocks[0], values)


def hat(t) -> HatTensor:
    """Materialize every wedge-basis action block of t."""
    rows = _block_rows(t)
    return HatTensor(n=t.n, blocks=tuple(_rebuild(t, row) for row in rows))


def hat_norm_sq(t) -> float:
    """Sum of squared block norms, without materializing the blocks.

    Block norms follow the source's convention, so p-forms sum over
    increasing indices only.
    """
    rows = _block_rows(t)
    return float(np.sum(rows * rows))


def curvature_term(r: CurvatureOperator, s, t) -> float:
    """The bilinear curvature term <R(hat S), hat T>.

    Equals sum over pairs of R_{ab} <Xi_a S, Xi_b T> in any orthonormal
    wedge basis; S and T must be tensors of the same kind and dimension.
    """
    if type(s) is not type(t):
        raise TypeError(f"kind mismatch: {type(s).__name__} vs {type(t).__name__}")
    if r.n != s.n or s.n != t.n:
        raise ValueError("dimension mismatch")
    rows_s = _block_rows(s)
    rows_t = rows_s if s is t else _block_rows(t)
    gram = rows_s @ rows_t.T
    return float(np.sum(r.mat * gram))


# -- Ricci curvature of a tensor ---------------------------------------------

def ric_of(r: CurvatureOperator, t):
    """Ricci curvature of a tensor under an operator.

    Definitional double sum -sum_c Xi_c (sum_a R_ac Xi_a T) over the wedge
    basis, with no algebraic shortcuts; it is the oracle the rest of the
    machinery is tested against.  All pairs are evaluated at once: the rows
    Xi_a T are the hat rows, gathered and scattered through the wedge table,
    one product with R^T mixes them into rows Y_c, and Xi_c acts on each Y_c
    through the same table read backwards, summed over c.  Every kind stays
    in its compact coordinates throughout.
    """
    if r.n != t.n:
        raise ValueError(f"dimension mismatch: {r.n} vs {t.n}")
    mixed = r.mat.T @ _block_rows(t)
    return _rebuild(t, -_sum_blocks(t, mixed))


def ric_identity_closed_form(t: Tensor0k) -> Tensor0k:
    """Closed form of the identity-operator Ricci curvature.

    k(n-1) T plus the sum of all slot transpositions of T minus the metric
    times the corresponding contractions.  Agrees exactly with
    ric_of(identity_operator(n), T).
    """
    arr = t.array
    n, k = t.n, t.k
    out = k * (n - 1.0) * arr.copy()
    eye = np.eye(n)
    for i in range(k):
        for j in range(i + 1, k):
            axes = list(range(k))
            axes[i], axes[j] = axes[j], axes[i]
            out += 2.0 * np.transpose(arr, axes)
            traced = np.trace(arr, axis1=i, axis2=j)
            out -= 2.0 * np.moveaxis(np.multiply.outer(traced, eye), (-2, -1), (i, j))
    return Tensor0k(out)
