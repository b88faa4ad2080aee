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
wedge basis, through the same slot products over the basis matrices, cached
per (n, p); the table read backwards serves only the Ricci sum.  Curvature
terms and the Ricci curvature of a tensor are bilinear expressions in those
blocks.

The kind table _KINDS owns the inner product, the action, the hat rows and
the Ricci curvature, on values of one kind stacked along a first axis; the
calls on a single tensor are a batch of one, so a batch goes through the
same code as a single tensor.  Their results are checked once, by
_Kind.stored, and _rebuild builds each tensor over the stored values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import CurvatureOperator, wedge_coordinates
from .tensors import (
    CurvTensor,
    PForm,
    Sym2,
    Tensor0k,
    _SYMMETRY_TOL,
    _bianchi_holds,
    _freeze,
    _integer,
    _require_finite,
    _symmetric_part,
    _tuple_index_map,
    check_dimension,
    increasing_tuples,
    same_dimension,
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
    def from_matrix(cls, mat):
        m = np.asarray(mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        _require_finite(m, "matrix entries")
        scale = max(1.0, float(np.abs(m).max()))
        # halved entries: halving is exact above the subnormal range, so the
        # test and the coordinates keep the bits of (m + m^T) / 2 and
        # (m_ji - m_ij) / 2, and no sum or difference of finite entries
        # overflows
        half = m / 2.0
        if float(np.abs(half + half.T).max()) > _SYMMETRY_TOL * scale / 2.0:
            raise ValueError("matrix is not skew-symmetric")
        n = m.shape[0]
        comps = [half[j, i] - half[i, j] for i, j in wedge_pairs(n)]
        return cls(n, comps)

    @classmethod
    def from_vectors(cls, x, y):
        """The wedge x^y; its matrix sends z to g(x,z)y - g(y,z)x."""
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.size != y.size:
            raise ValueError("vectors must have equal length")
        return cls(x.size, wedge_coordinates(x, y, x.size))

    def matrix(self) -> np.ndarray:
        """Skew matrix acting on column vectors."""
        return _action_matrices(self.comps, self.n, 1)

    def norm_sq(self) -> float:
        return float(self.comps @ self.comps)

    def __repr__(self):
        return f"SoElement(n={self.n})"


def wedge_element(n, i, j) -> SoElement:
    """Basis element e_i^e_j; order of i and j fixes the sign."""
    i, j = _integer(i, "index"), _integer(j, "index")
    if i == j:
        raise ValueError("wedge of equal indices vanishes")
    comps = np.zeros(wedge_count(n))
    comps[wedge_index(n, min(i, j), max(i, j))] = 1.0 if i < j else -1.0
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


def _action_matrices(comps, n, p):
    """Matrices on compact p-form coordinates of so(n) elements with stacked
    coordinates comps (..., pairs): A[..., tgt, src] = lam sgn."""
    tgt, src, sgn = _wedge_table(n, p)
    size = math.comb(n, p)
    out = np.zeros(comps.shape[:-1] + (size, size))
    out[..., tgt, src] = comps[..., :, None] * sgn
    return out


@lru_cache(maxsize=None)
def _basis_matrices(n, p):
    """The action matrices of the wedge basis, (pairs, dim, dim)."""
    return _freeze(_action_matrices(np.eye(wedge_count(n)), n, p))


@dataclass(frozen=True)
class _Kind:
    """How the tensors of one kind sit as k slots over Lambda^p.

    values names the attribute holding their coordinates; a p or k of None
    is the tensor's own degree, a form's p or a (0,k)-tensor's k.  A
    symmetric kind is stored as an exactly symmetric matrix, so the results
    of the action are checked and symmetrized as its constructor does; the
    action keeps the first Bianchi identity of a bianchi kind; a dot
    kind's inner products are dot products of its flattened coordinates,
    another kind's the sums of its entrywise products.
    """

    values: str
    p: int | None
    k: int | None
    symmetric: bool = False
    bianchi: bool = False
    dot: bool = False

    def slots(self, degree=None):
        """(p, k) of a tensor of this kind and degree."""
        return self.p or degree, self.k or degree

    def inners(self, a, b):
        """Inner products of coordinates stacked along the first axis: inner
        of a batch of one."""
        if self.dot:
            return (a.reshape(len(a), 1, -1) @ b.reshape(len(b), -1, 1))[:, 0, 0]
        return np.sum(a * b, axis=tuple(range(1, a.ndim)))

    def norm_sqs(self, stack):
        """Squared norms of coordinates stacked along the first axis, as
        the kind's norm_sq takes them."""
        return self.inners(stack, stack)

    def acted(self, comps, values, n, degree=None):
        """so_act of elements with stacked coordinates comps on values of
        this kind stacked along the first axis, shaped and stored as the
        values and checked as the kind's constructor checks one: raises
        ValueError where a result is not finite or, for a symmetric kind,
        not symmetric, and AssertionError where a bianchi kind's value keeps
        the Bianchi identity and its result does not.  A result's Bianchi
        residual is taken only where its value keeps the identity, since
        elsewhere it cannot decide."""
        flat = _act(comps, values.reshape(len(values), -1), n, *self.slots(degree))
        out = self.stored(flat.reshape(values.shape), "action result")
        if self.bianchi:
            held = _bianchi_holds(values)
            if held.any() and not np.all(_bianchi_holds(out if held.all() else out[held])):
                raise AssertionError("action failed to preserve the Bianchi identity")
        return out

    def rows(self, values, n, degree=None):
        """Hat rows of values of this kind stacked along the first axis: per
        value, one row per wedge pair, the pair's action block flattened."""
        return _block_rows(values.reshape(len(values), -1), n, *self.slots(degree))

    def rics(self, mats, values, n, degree=None):
        """Ricci curvatures of values of this kind stacked along the first
        axis under stacked operator matrices (None for the identity), shaped
        and stored as the values, and the hat rows they came from.

        Definitional double sum -sum_c Xi_c (sum_a R_ac Xi_a T) over the
        wedge basis, with no algebraic shortcuts: one product with R^T
        mixes the hat rows Xi_a T into rows Y_c, and Xi_c acts on each Y_c
        through the wedge table read backwards, summed over c.  The
        identity operator leaves the rows as they are.
        """
        rows = self.rows(values, n, degree)
        mixed = rows if mats is None else mats.swapaxes(-1, -2) @ rows
        ric = -_sum_blocks(mixed, n, *self.slots(degree))
        return self.stored(ric.reshape(values.shape), "Ricci curvature"), rows

    def stored(self, out, what):
        """Stacked results of this kind as its constructor stores them:
        ValueError where one is not finite or, for a symmetric kind, not
        symmetric; symmetrized otherwise."""
        _require_finite(out, f"{what}s")
        return _symmetric_part(out, what) if self.symmetric else out


_KINDS = {
    PForm: _Kind("comps", None, 1, dot=True),
    Sym2: _Kind("mat", 1, 2, symmetric=True),
    Tensor0k: _Kind("array", 1, None, dot=True),
    CurvTensor: _Kind("array", 1, 4, bianchi=True),
    CurvatureOperator: _Kind("mat", 2, 2, symmetric=True),
}


def _layout(t):
    """(kind, values, degree): t's kind, its stored values and its degree,
    a form's p or a (0,k)-tensor's k, None for the kinds of fixed degree."""
    kind = _KINDS.get(type(t))
    if kind is None:
        raise TypeError(f"unsupported kind {type(t).__name__}")
    degree = t.p if kind.p is None else t.k if kind.k is None else None
    return kind, getattr(t, kind.values), degree


def _paired_layout(s, t):
    """(kind, values of s, values of t, degree) of two tensors of one kind,
    dimension and degree (a form's p, a (0,k)-tensor's k)."""
    if type(s) is not type(t):
        raise TypeError(f"kind mismatch: {type(s).__name__} vs {type(t).__name__}")
    same_dimension(s, t)
    (kind, values_s, degree_s), (_, values_t, degree_t) = _layout(s), _layout(t)
    if degree_s != degree_t:
        raise ValueError(f"degree mismatch: {degree_s} vs {degree_t}")
    return kind, values_s, values_t, degree_s


def inner(a, b) -> float:
    """Inner product of two tensors of the same kind, dimension and degree."""
    kind, values_a, values_b, _ = _paired_layout(a, b)
    return float(kind.inners(values_a[None], values_b[None])[0])


def _rebuild(t, values):
    """A tensor of t's type, dimension and degree over values of t's shape,
    as _Kind.stored returns them: no copy and no second check.  It takes
    t's public slots; the underscored ones are caches and start unread."""
    out = type(t).__new__(type(t))
    for slot in type(t).__slots__:
        setattr(out, slot, None if slot.startswith("_") else getattr(t, slot))
    setattr(out, _KINDS[type(t)].values, _freeze(values))
    return out


# -- the action of a general element -----------------------------------------

def _act(comps, values, n, p, k):
    """Elements with stacked coordinates comps (..., pairs) acting on every
    slot of stacked k-slot values over Lambda^p, flattened to (..., dim**k)."""
    return _slot_products(_action_matrices(comps, n, p), values, k)


def _slot_products(mats, values, k):
    """Action matrices (..., dim, dim) on every slot of stacked k-slot values
    (..., dim**k), the leading axes of both broadcast against each other.

    Slot by slot through reshaped views, each slot one product per item:
    the last slot is the trailing axis, the first leads, and a middle slot
    is read through a swapped view.
    """
    dim = mats.shape[-1]
    lead, stack = np.broadcast_shapes(mats.shape[:-2], values.shape[:-1]), values.shape[:-1]
    out = np.zeros(lead + values.shape[-1:])
    for slot in range(k):
        before, after = dim ** slot, dim ** (k - slot - 1)
        if after == 1:
            moved = out.reshape(lead + (before, dim))
            moved -= values.reshape(stack + (before, dim)) @ mats
        elif before == 1:
            moved = out.reshape(lead + (dim, after))
            moved -= mats.swapaxes(-1, -2) @ values.reshape(stack + (dim, after))
        else:
            shape = (before, dim, after)
            moved = out.reshape(lead + shape).swapaxes(-1, -2)
            moved -= values.reshape(stack + shape).swapaxes(-1, -2) @ mats[..., None, :, :]
    return out


def ad_matrix(lam: SoElement) -> np.ndarray:
    """Matrix of the action of lam on wedge coordinates."""
    return _action_matrices(lam.comps, lam.n, 2)


def act_on_operator(lam: SoElement, r: CurvatureOperator) -> CurvatureOperator:
    """Derivation action on a symmetric wedge-space operator.

    (L R)(A, B) = -R(L A, B) - R(A, L B), which is the commutator of the
    induced wedge-coordinate matrix with the operator matrix.  The action
    preserves the Bianchi subspace, but the result's certificate is detected
    from its own matrix: at n = 4 the action also kills the alternating part,
    so a non-Bianchi operator can act to a Bianchi one.
    """
    return so_act(lam, r)


def so_act(lam: SoElement, t):
    """Derivation action of lam on a tensor, preserving its kind."""
    if lam.n != t.n:
        raise ValueError(f"dimension mismatch: {lam.n} vs {t.n}")
    kind, values, degree = _layout(t)
    return _rebuild(t, kind.acted(lam.comps[None], values[None], t.n, degree)[0])


# -- hat tensors -------------------------------------------------------------

def _slot_views(flat, dim, k):
    """Per slot, a view of flat's last axis (dim**k entries) as
    (..., dim, before, after), the slot's index in front of the rest."""
    lead = flat.shape[:-1]
    for slot in range(k):
        view = flat.reshape(lead + (dim ** slot, dim, dim ** (k - slot - 1)))
        yield view.swapaxes(-3, -2)


def _block_rows(values, n, p, k) -> np.ndarray:
    """Flattened wedge-basis action blocks of stacked k-slot values over
    Lambda^p (..., dim**k), one row per pair (..., pairs, dim**k).

    Each basis matrix is a signed partial permutation, so every entry of a
    slot product is one signed value plus exact zeros: the rows keep the
    values' bits whatever kernel multiplies, and a zero comes out +0.0.
    """
    return _slot_products(_basis_matrices(n, p), values[..., None, :], k)


def _sum_blocks(rows, n, p, k) -> np.ndarray:
    """sum_c Xi_c rows[..., c, :] for rows shaped like _block_rows' output:
    the table read backwards.

    Entries of different pairs land on the same coordinate, so the scatter
    is a product with the signed incidence of coordinates and entries.
    """
    _, src, _ = _wedge_table(n, p)
    incidence = _incidence(n, p)
    pair = np.arange(src.shape[0])[None, :]
    lead, size = rows.shape[:-2], rows.shape[-1]
    out = np.zeros(lead + (size,))
    dim = incidence.shape[0]
    for moved_out, moved_rows in zip(_slot_views(out, dim, k), _slot_views(rows, dim, k)):
        gathered = moved_rows[..., pair, src.T, :, :].reshape(lead + (src.size, size // dim))
        moved_out += (incidence @ gathered).reshape(moved_out.shape)
    return out


def _hat_rows(t) -> np.ndarray:
    """The hat rows of a single tensor, one row per wedge pair."""
    kind, values, degree = _layout(t)
    return kind.rows(values[None], t.n, degree)[0]


def _hat_norms_consuming(rows):
    """Squared hat norms of stacked block rows, squaring rows in place, so
    no caller may read rows after it.  The copy rows * rows would raise the
    peak resident memory of the inequality benchmark by 0.5 MB."""
    return np.sum(np.square(rows, out=rows), axis=(-2, -1))


def _terms(mats, rows_s, rows_t):
    """Curvature terms <R(hat S), hat T> of stacked operator matrices and
    block rows."""
    return np.sum(mats * (rows_s @ rows_t.swapaxes(-1, -2)), axis=(-2, -1))


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
        kind = _KINDS[type(self.blocks[0])]
        # an overflow is refused by stored, as a pairing that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            values = sum(c * _layout(b)[1] for c, b in zip(lam.comps, self.blocks))
        return _rebuild(self.blocks[0], kind.stored(values[None], "pairing")[0])


def hat(t) -> HatTensor:
    """Materialize every wedge-basis action block of t."""
    kind, values, _ = _layout(t)
    rows = kind.stored(_hat_rows(t).reshape((-1,) + values.shape), "hat block")
    return HatTensor(n=t.n, blocks=tuple(_rebuild(t, row) for row in rows))


def hat_norm_sq(t) -> float:
    """Sum of squared block norms, without materializing the blocks.

    Block norms follow the source's convention, so p-forms sum over
    increasing indices only.
    """
    return float(_hat_norms_consuming(_hat_rows(t)))


def curvature_term(r: CurvatureOperator, s, t) -> float:
    """The bilinear curvature term <R(hat S), hat T>.

    Equals sum over pairs of R_{ab} <Xi_a S, Xi_b T> in any orthonormal
    wedge basis; S and T must be tensors of the same kind, dimension and
    degree (a form's p, a (0,k)-tensor's k).
    """
    _paired_layout(s, t)
    same_dimension(r, s)
    rows_s = _hat_rows(s)
    rows_t = rows_s if s is t else _hat_rows(t)
    return float(_terms(r.mat, rows_s, rows_t))


# -- Ricci curvature of a tensor ---------------------------------------------

def ric_of(r: CurvatureOperator, t):
    """Ricci curvature of a tensor under an operator: the definitional
    double sum of _Kind.rics, the oracle the rest of the machinery is
    tested against.  Every kind stays in its compact coordinates
    throughout."""
    if r.n != t.n:
        raise ValueError(f"dimension mismatch: {r.n} vs {t.n}")
    kind, values, degree = _layout(t)
    return _rebuild(t, kind.rics(r.mat[None], values[None], t.n, degree)[0][0])


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
