"""Dense tensor arithmetic on small Euclidean spaces.

Tensors live on R^n with the standard basis declared orthonormal, so the
metric is the identity matrix and index placement never matters.  Components
are stored as full numpy arrays in C (lexicographic) order; alternating forms
keep a compact layout over strictly increasing multi-indices.  All values are
immutable after construction and every operation is a pure function.

A (0,4)-tensor with the pair symmetries is also an N x N matrix over the
wedge pairs i < j, its operator coordinates.  The layout change between the
two pictures lives here: _ops_from_tensors gathers a tensor at the wedge
pairs and _tensors_from_ops spreads a matrix back.  The Kulkarni-Nomizu
product _kn returns operator coordinates, and kulkarni_nomizu spreads them.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

# The library's scope: R^n for 2 <= n <= _MAX_N.
_MAX_N = 8

# Relative slack, against max(1, largest entry), of the symmetry and
# skewness checks on matrices handed to a constructor, and of the exact
# identities detected on tensors: the pair symmetries, the first Bianchi
# identity and alternation.
_SYMMETRY_TOL = 1e-9
_IDENTITY_TOL = 1e-12


def _integer(value, what, lo=None, hi=None) -> int:
    """value as an int, for a Python or numpy integer that is not a bool;
    ValueError naming what for anything else, or when value is below lo or,
    given hi, outside lo..hi."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = operator.index(value)
    if lo is not None and (value < lo or hi is not None and value > hi):
        bounds = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{what} must be {bounds}, got {value}")
    return value


def _real(value, what):
    """value itself, for a Python or numpy integer or float that is not a
    bool; ValueError naming what for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return value


def check_dimension(n, lo=2) -> int:
    """n as an int in lo.._MAX_N; lo raises the library's floor of 2."""
    n = _integer(n, "dimension", lo)
    if n > _MAX_N:
        raise ValueError(f"dimension {n} exceeds the cap {_MAX_N}")
    return n


@lru_cache(maxsize=None)
def increasing_tuples(n, p):
    """Strictly increasing p-tuples in 0..n-1, lexicographic order."""
    return tuple(combinations(range(n), p))


@lru_cache(maxsize=None)
def _tuple_index_map(n, p):
    return {t: i for i, t in enumerate(increasing_tuples(n, p))}


def wedge_pairs(n):
    """Index pairs (i, j) with i < j in lexicographic order."""
    return increasing_tuples(check_dimension(n), 2)


def wedge_count(n) -> int:
    n = check_dimension(n)
    return n * (n - 1) // 2


def wedge_index(n, i, j) -> int:
    """Position of e_i^e_j (i < j, 0-based) in the lexicographic wedge basis."""
    n = check_dimension(n)
    i, j = _integer(i, "index"), _integer(j, "index")
    try:
        return _tuple_index_map(n, 2)[(i, j)]
    except KeyError:
        raise ValueError(f"({i}, {j}) is not an increasing pair in 0..{n - 1}") from None


def _freeze(arr):
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _pair_index(n):
    """Index arrays (i, j) of the lexicographic wedge pairs."""
    pairs = wedge_pairs(n)
    return (
        _freeze(np.array([i for i, _ in pairs], dtype=np.intp)),
        _freeze(np.array([j for _, j in pairs], dtype=np.intp)),
    )


@lru_cache(maxsize=None)
def _wedge_patterns(n):
    """Stack of skew coordinate patterns, one per wedge basis pair."""
    pairs = wedge_pairs(n)
    w = np.zeros((len(pairs), n, n))
    for a, (i, j) in enumerate(pairs):
        w[a, i, j] = 1.0
        w[a, j, i] = -1.0
    return _freeze(w)


def _tensors_from_ops(mats, n):
    """(0,4)-arrays (..., n, n, n, n) of stacked operator matrices: each
    entry is an operator entry, exactly, or its negative, or zero."""
    w = _wedge_patterns(n).reshape(-1, n * n)
    return (w.T @ (mats @ w)).reshape(mats.shape[:-2] + (n,) * 4)


def _ops_from_tensors(arr, n):
    """Operator matrices (..., N, N) of stacked (0,4)-arrays with the pair
    symmetries: their entries at the wedge pairs, the exact inverse of
    _tensors_from_ops.  For pair-skew A and B, <A, B> = 4 <A_op, B_op>, and
    the action of so(n) commutes with A -> A_op."""
    i, j = _pair_index(n)
    return arr[..., i[:, None], j[:, None], i, j]


def _require_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")


def same_dimension(a, b):
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")


class Tensor0k:
    """Dense (0, k)-tensor; array shape (n, ..., n) with k axes."""

    __slots__ = ("n", "k", "array")

    def __init__(self, array):
        self._adopt(np.array(array, dtype=float))

    @classmethod
    def _owning(cls, arr):
        """A tensor over arr itself, a fresh float array no one else holds:
        the constructor without its copy, which at n = p = 8 is 128 MiB."""
        t = cls.__new__(cls)
        t._adopt(arr)
        return t

    def _adopt(self, arr):
        if arr.ndim < 1:
            raise ValueError("tensor order must be at least 1")
        n = arr.shape[0]
        if any(s != n for s in arr.shape):
            raise ValueError(f"axes must have equal length, got shape {arr.shape}")
        check_dimension(n)
        _require_finite(arr, "tensor components")
        self.n = n
        self.k = arr.ndim
        self.array = _freeze(arr)

    def norm_sq(self) -> float:
        # a dot product of the flat view, with no squared temporary
        flat = self.array.reshape(-1)
        return float(flat @ flat)

    def __repr__(self):
        return f"Tensor0k(n={self.n}, k={self.k})"


class Sym2:
    """Symmetric (0, 2)-tensor, stored exactly symmetric."""

    __slots__ = ("n", "mat")

    def __init__(self, mat):
        m = np.array(mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        check_dimension(m.shape[0])
        _require_finite(m, "matrix entries")
        m = _symmetric_part(m, "matrix")  # exact: float addition commutes entrywise
        self.n = m.shape[0]
        self.mat = _freeze(m)

    def trace(self) -> float:
        return float(np.trace(self.mat))

    def traceless(self) -> "Sym2":
        """Trace-free part h - (tr h / n) g."""
        return Sym2(_traceless(self.mat))

    def norm_sq(self) -> float:
        return float(np.sum(self.mat * self.mat))

    def to_tensor(self) -> Tensor0k:
        return Tensor0k(self.mat)

    def __repr__(self):
        return f"Sym2(n={self.n})"


def _symmetrized(mats):
    """(m + m^T) / 2 of stacked square matrices (..., n, n)."""
    return (mats + mats.swapaxes(-1, -2)) / 2.0


def _symmetric_part(mats, what):
    """_symmetrized of stacked square matrices, each of which must be
    symmetric to _SYMMETRY_TOL relative to max(1, its largest entry) and
    have its entries below 2**1023 in magnitude; raises ValueError naming
    what otherwise.  The Sym2 and CurvatureOperator constructors check
    their one matrix through it too.
    """
    scale = np.maximum(1.0, np.abs(mats).max(axis=(-2, -1)))
    # two entries below 2**1023 in magnitude sum, and differ, to at most the
    # largest float, so neither m + m^T nor the symmetry test can overflow
    if np.any(scale >= 2.0 ** 1023):
        raise ValueError(f"{what} entries must be below 2**1023 in magnitude, or their symmetric part overflows")
    if np.any(np.abs(mats - mats.swapaxes(-1, -2)).max(axis=(-2, -1)) > _SYMMETRY_TOL * scale):
        raise ValueError(f"{what} is not symmetric")
    return _symmetrized(mats)


def _traceless(mats):
    """Trace-free parts m - (tr m / n) I of stacked square matrices."""
    size = mats.shape[-1]
    trace = np.trace(mats, axis1=-2, axis2=-1)
    return mats - (trace / size)[..., None, None] * np.eye(size)


def identity_sym2(n) -> Sym2:
    """The metric tensor g of R^n."""
    return Sym2(np.eye(check_dimension(n)))


def _inversion_signs(rows):
    """+-1.0 by the parity of the inversions of each row of an integer array
    (..., p), the positions i < j with rows[..., i] > rows[..., j]."""
    i, j = np.triu_indices(rows.shape[-1], 1)
    return 1.0 - 2.0 * (np.count_nonzero(rows[..., i] > rows[..., j], axis=-1) % 2)


@lru_cache(maxsize=None)
def _perm_signs(p):
    """The permutations of range(p) in lexicographic order, identity first,
    as the rows of a (p!, p) index array, and their signs +-1.0, the parity
    of their inversions."""
    perms = np.array(list(permutations(range(p))), dtype=np.intp)
    return _freeze(perms), _freeze(_inversion_signs(perms))


@lru_cache(maxsize=None)
def _dense_scatter(n, p):
    """Flat positions and signs for spreading compact form components over a
    dense array: one row per slot permutation of _perm_signs(p), one column
    per increasing tuple, position sum_d idx[perm[d]] n^(p-1-d).  Positions
    never collide."""
    perms, signs = _perm_signs(p)
    tuples = np.array(increasing_tuples(n, p), dtype=np.intp)
    weights = n ** np.arange(p - 1, -1, -1, dtype=np.intp)
    return _freeze(weights @ tuples.T[perms]), signs


class PForm:
    """Alternating (0, p)-tensor on increasing multi-indices.

    The squared norm sums over increasing indices only, so unit wedge basis
    forms have norm one.
    """

    __slots__ = ("n", "p", "comps")

    def __init__(self, n, p, comps):
        n = check_dimension(n)
        p = _integer(p, "form degree", 1, n)
        comps = np.array(comps, dtype=float).reshape(-1)
        want = math.comb(n, p)
        if comps.size != want:
            raise ValueError(f"expected {want} components for (n={n}, p={p}), got {comps.size}")
        _require_finite(comps, "form components")
        self.n = n
        self.p = p
        self.comps = _freeze(comps)

    def value(self, indices) -> float:
        """Evaluate at an arbitrary index tuple, with the sign of the
        permutation that sorts it, the parity of its inversions; zero when
        an index repeats."""
        idx = tuple(indices)
        if len(idx) != self.p:
            raise ValueError(f"expected {self.p} indices, got {len(idx)}")
        idx = tuple(_integer(i, "index") for i in idx)
        if not all(0 <= i < self.n for i in idx):
            raise ValueError(f"indices must be integers in 0..{self.n - 1}, got {idx}")
        if len(set(idx)) < self.p:
            return 0.0
        key = _tuple_index_map(self.n, self.p)[tuple(sorted(idx))]
        return float(_inversion_signs(np.array(idx)) * self.comps[key])

    def norm_sq(self) -> float:
        return float(self.comps @ self.comps)

    def to_tensor(self) -> Tensor0k:
        """Dense alternating representative; norm_sq scales by p factorial."""
        arr = np.zeros(self.n ** self.p)
        flat, signs = _dense_scatter(self.n, self.p)
        arr[flat.reshape(-1)] = np.outer(signs, self.comps).reshape(-1)
        return Tensor0k._owning(arr.reshape((self.n,) * self.p))

    @classmethod
    def from_tensor(cls, t: Tensor0k):
        """Read a dense alternating tensor back into compact storage.

        The tensor is alternating when |to_tensor() - t| stays within
        _IDENTITY_TOL times max(1, its largest entry), read off without a
        second array as large as t: at the scatter positions from the
        gathered entries, off them from the largest and smallest entry of t
        there, one leading index at a time.
        """
        if t.k > t.n:  # before _dense_scatter, which has k! rows
            raise ValueError(f"form degree must be in 1..{t.n}, got {t.k}")
        entries = t.array.reshape(-1)
        flat, signs = _dense_scatter(t.n, t.k)
        gathered = entries[flat]
        # the identity permutation is the first row of the scatter
        form = cls(t.n, t.k, gathered[0])
        deviation = float(np.abs(signs[:, None] * gathered[0] - gathered).max())
        stride = entries.size // t.n
        lead, rest = np.divmod(flat.reshape(-1), stride)
        off = np.empty(stride, dtype=bool)
        for i, block in enumerate(entries.reshape(t.n, stride)):
            off.fill(True)
            off[rest[lead == i]] = False
            deviation = max(
                deviation,
                float(np.max(block, where=off, initial=0.0)),
                -float(np.min(block, where=off, initial=0.0)),
            )
        scale = max(1.0, float(entries.max()), -float(entries.min()))
        if deviation > _IDENTITY_TOL * scale:
            raise ValueError("tensor is not alternating")
        return form

    def __repr__(self):
        return f"PForm(n={self.n}, p={self.p})"


def wedge_basis_form(n, indices) -> PForm:
    """Unit basis form e^{i_1}^...^e^{i_p} for strictly increasing indices."""
    n = check_dimension(n)
    idx = tuple(_integer(i, "index", 0, n - 1) for i in indices)
    if any(a >= b for a, b in zip(idx, idx[1:])) or len(idx) == 0:
        raise ValueError(f"indices must be strictly increasing, got {idx}")
    comps = np.zeros(math.comb(n, len(idx)))
    comps[_tuple_index_map(n, len(idx))[idx]] = 1.0
    return PForm(n, len(idx), comps)


class CurvTensor:
    """(0, 4)-tensor of curvature type, with cached symmetry flags.

    Flags record whether the components are skew in each pair, symmetric
    under pair exchange, and whether the first Bianchi sum vanishes; they are
    detected against the stored components on first access and cached, never
    assumed.
    """

    __slots__ = ("n", "array", "_pair_skew", "_pair_symmetric", "_bianchi")

    def __init__(self, array):
        arr = np.array(array, dtype=float)
        if arr.ndim != 4 or any(s != arr.shape[0] for s in arr.shape):
            raise ValueError(f"expected shape (n, n, n, n), got {arr.shape}")
        check_dimension(arr.shape[0])
        _require_finite(arr, "tensor components")
        self.n = arr.shape[0]
        self.array = _freeze(arr)
        self._pair_skew = None
        self._pair_symmetric = None
        self._bianchi = None

    @property
    def pair_skew(self) -> bool:
        if self._pair_skew is None:
            arr = self.array
            bound = _IDENTITY_TOL * max(1.0, float(np.abs(arr).max()))
            self._pair_skew = bool(
                float(np.abs(arr + arr.transpose(1, 0, 2, 3)).max()) <= bound
                and float(np.abs(arr + arr.transpose(0, 1, 3, 2)).max()) <= bound
            )
        return self._pair_skew

    @property
    def pair_symmetric(self) -> bool:
        if self._pair_symmetric is None:
            arr = self.array
            bound = _IDENTITY_TOL * max(1.0, float(np.abs(arr).max()))
            self._pair_symmetric = bool(
                float(np.abs(arr - arr.transpose(2, 3, 0, 1)).max()) <= bound
            )
        return self._pair_symmetric

    @property
    def bianchi(self) -> bool:
        if self._bianchi is None:
            self._bianchi = bool(_bianchi_holds(self.array))
        return self._bianchi

    def norm_sq(self) -> float:
        return float(np.sum(self.array * self.array))

    def __repr__(self):
        return (
            f"CurvTensor(n={self.n}, pair_skew={self.pair_skew}, "
            f"pair_symmetric={self.pair_symmetric}, bianchi={self.bianchi})"
        )


def _bianchi_residual(arr):
    """max |R(x,y,z,w) + R(y,z,x,w) + R(z,x,y,w)| over the last four axes of
    stacked (0,4)-arrays."""
    lead = tuple(range(arr.ndim - 4))
    x, y, z, w = range(len(lead), arr.ndim)
    cyc = arr + arr.transpose(lead + (y, z, x, w)) + arr.transpose(lead + (z, x, y, w))
    return np.abs(cyc).max(axis=(x, y, z, w))


def _bianchi_holds(arr):
    """Whether the Bianchi residual of each of stacked (0,4)-arrays is at
    most _IDENTITY_TOL times max(1, its largest entry)."""
    scale = np.maximum(1.0, np.abs(arr).max(axis=(-4, -3, -2, -1)))
    return _bianchi_residual(arr) <= _IDENTITY_TOL * scale


def permute(t: Tensor0k, sigma) -> Tensor0k:
    """Slot permutation (T o sigma)(X_1, ..., X_k) = T(X_sigma(1), ..., X_sigma(k)).

    sigma is a 0-based permutation of range(k).  numpy's transpose carries
    slot d of the source to slot axes^-1(d), so the inverse permutation makes
    component [i_1, ..., i_k] read the source at [i_sigma(1), ..., i_sigma(k)].
    """
    sigma = tuple(_integer(s, "slot") for s in sigma)
    if sorted(sigma) != list(range(t.k)):
        raise ValueError(f"not a permutation of 0..{t.k - 1}: {sigma}")
    inverse = np.argsort(sigma)
    return Tensor0k(np.transpose(t.array, inverse))


def kulkarni_nomizu(s: Sym2, t: Sym2) -> CurvTensor:
    """Kulkarni-Nomizu product of two symmetric tensors.

    (S * T)(X,Y,Z,W) = S(X,Z)T(Y,W) - S(X,W)T(Y,Z)
                     + S(Y,W)T(X,Z) - S(Y,Z)T(X,W)

    The result carries all curvature-type symmetries including Bianchi.
    """
    same_dimension(s, t)
    return CurvTensor(_tensors_from_ops(_kn(s.mat, t.mat), s.n))


@lru_cache(maxsize=None)
def _kn_positions(n):
    """Flat positions in an n x n matrix of the factors of the four terms of
    the Kulkarni-Nomizu product at the wedge pairs alpha = (i, j) and
    beta = (k, l), shaped (4, N, N): the first factors at ik, il, jl, jk and
    the second at jl, jk, ik, il."""
    i, j = _pair_index(n)
    ik, il, jl, jk = (x[:, None] * n + y for x, y in ((i, i), (i, j), (j, j), (j, i)))
    return _freeze(np.stack((ik, il, jl, jk))), _freeze(np.stack((jl, jk, ik, il)))


def _kn(a, b):
    """Kulkarni-Nomizu products of stacked symmetric matrices (..., n, n) on
    operator coordinates (..., N, N): a_ik b_jl - a_il b_jk + a_jl b_ik -
    a_jk b_il at the wedge pairs (i, j) and (k, l), summed in that order.
    KN(g, g) is exactly 2I.  _tensors_from_ops spreads them to (0,4)-arrays.
    """
    first, second = _kn_positions(a.shape[-1])
    p = a.reshape(a.shape[:-2] + (-1,))[..., first] * b.reshape(b.shape[:-2] + (-1,))[..., second]
    # einsum adds each product to a zeroed output, which turns a -0.0
    # product into +0.0; doing the same keeps the products of the
    # four-einsum definition byte for byte
    p += 0.0
    return p[..., 0, :, :] - p[..., 1, :, :] + p[..., 2, :, :] - p[..., 3, :, :]
