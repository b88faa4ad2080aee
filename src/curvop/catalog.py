"""Exact constructors for the catalog of operators, forms, and extremal pairs.

Every numeric that a constructor advertises (hat norms, curvature terms,
spectra) is re-derived through the action and operator modules by the test
suites; nothing is hard-coded as a return value.  The split-basis operators
are (1/2) sum lam u u^T over the integer split vectors u: dyadic, and exact,
for dyadic eigenvalues (cp2's entries are -1, 0, 1, 2 and 4).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .action import SoElement
from .operators import CurvatureOperator, _plane_op, wedge_count
from .tensors import (
    PForm,
    Sym2,
    _integer,
    _tuple_index_map,
    check_dimension,
    wedge_index,
    wedge_pairs,
)


def singer_thorpe_basis() -> tuple:
    """Orthonormal basis of wedge space over R^4 as six SoElements: the split
    vectors u / sqrt(2), a self-dual then an anti-self-dual triple."""
    return tuple(SoElement(4, comps) for comps in _split_vectors(4) / math.sqrt(2.0))


def singer_thorpe_op(lams) -> CurvatureOperator:
    """Operator diagonal in the Singer-Thorpe basis, singer_thorpe_basis(),
    with the given six eigenvalues (first three on the self-dual triple).

    Satisfies the first Bianchi identity exactly when the self-dual
    eigenvalues and the anti-self-dual eigenvalues have equal sums; the
    certificate is detected from the stored matrix, not assumed.
    """
    lams = [float(x) for x in lams]
    if len(lams) != 6:
        raise ValueError(f"expected six eigenvalues, got {len(lams)}")
    if not all(map(math.isfinite, lams)):
        raise ValueError(f"eigenvalues must be finite, got {lams}")
    # xi xi^T = (1/2) u u^T for xi = u / sqrt(2); halving each eigenvalue
    # before the sum keeps it finite
    u = _split_vectors(4)
    return CurvatureOperator(4, np.einsum("a,ai,aj->ij", 0.5 * np.array(lams), u, u))


def cp2_op() -> CurvatureOperator:
    """Curvature operator of the complex projective plane (Fubini-Study
    normalization): Singer-Thorpe eigenvalues (0, 0, 6, 2, 2, 2)."""
    return singer_thorpe_op((0.0, 0.0, 6.0, 2.0, 2.0, 2.0))


def sphere_product_op(p, n) -> CurvatureOperator:
    """Curvature operator of the product of a unit p-sphere with flat space.

    Wedges inside the sphere block are fixed, everything else is killed.
    """
    n = check_dimension(n)
    p = _integer(p, "sphere dimension", 2, n)
    return _plane_op(n, lambda i, j: float(j < p))


def product_of_spheres_op(k, n) -> CurvatureOperator:
    """Curvature operator of k unit 2-spheres times flat space.

    Eigenvectors e_{2i}^e_{2i+1} with eigenvalue one, kernel otherwise.
    """
    n = check_dimension(n)
    k = _integer(k, "k", 1, n // 2)
    return _plane_op(n, lambda i, j: float(i % 2 == 0 and j == i + 1 < 2 * k))


def negative_2form_term_op(n, lam):
    """An (n-1)-nonnegative operator paired with a 2-form on which its
    curvature term is negative.

    The self-dual triple (L, Re w, Im w) / sqrt(2) of _split_vectors takes
    eigenvalues w_a = (-(n-3) lam, -(n-3) lam, 2n lam); every remaining
    direction takes 2 lam.  The matrix is 2 lam I + (1/2) sum (w_a - 2 lam)
    u_a u_a^T, dyadic when lam is.  The returned form is the Kaehler form
    Im w = e^0^e^3 + e^1^e^2, and the term is -4 lam |Im w|^2.
    """
    n = check_dimension(n, 4)
    lam = float(lam)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"the scale must be positive and finite, got {lam}")
    # 2n lam, the largest eigenvalue, bounds every entry; keeping it below
    # the bound CurvatureOperator takes means no product below overflows
    if 2.0 * n * lam >= 2.0 ** 1023:
        raise ValueError(f"the scale must keep 2n*lam below 2**1023, got lam={lam} at n={n}")
    u = _split_vectors(n)[:3]
    halves = 0.5 * (np.array([-(n - 3.0), -(n - 3.0), 2.0 * n]) * lam - 2.0 * lam)
    mat = 2.0 * lam * np.eye(wedge_count(n)) + np.einsum("a,ai,aj->ij", halves, u, u)
    return CurvatureOperator(n, mat), PForm(n, 2, u[2])


def extremal_pform(p):
    """The sharp p-form pair on R^{2p} for the rotation sum L.

    L = e_0^e_1 + e_2^e_3 + ... and w1 - i w2 = (e^0 + i e^1)^(e^2 + i e^3)^...,
    as _rotation_sum and _highest_weight_form write them.  In the library's
    sign convention so_act(L, w1) = -p w2 and so_act(L, w2) = p w1; the
    extremal-pform suite checks both against the action.  Returns (w1, w2, L).
    """
    p = _integer(p, "form degree", 1)
    n = check_dimension(2 * p)
    real, imag = _highest_weight_form(n, p)
    # negated rather than stored with flipped signs, so that every zero of w2
    # is -0.0 as in the catalog's pinned output
    return PForm(n, p, real), PForm(n, p, -imag), _rotation_sum(n, p)


def _highest_weight_form(n, p):
    """The real and imaginary compact coordinates on R^n, 2p <= n, of the
    highest-weight form (e^0 + i e^1)^(e^2 + i e^3)^...^(e^{2p-2} + i e^{2p-1}):
    the term that takes e^{2j+1} in k of the p factors has coefficient i^k."""
    index_map = _tuple_index_map(n, p)
    real = np.zeros(len(index_map))
    imag = np.zeros(len(index_map))
    for second in itertools.product((0, 1), repeat=p):
        k = sum(second)
        part = imag if k % 2 else real
        part[index_map[tuple(2 * j + s for j, s in enumerate(second))]] = (-1.0) ** (k // 2)
    return real, imag


def _rotation_sum(n, terms):
    """L = e_0^e_1 + e_2^e_3 + ... with the given number of terms, in so(n)."""
    comps = np.zeros(wedge_count(n))
    comps[[wedge_index(n, 2 * i, 2 * i + 1) for i in range(terms)]] = 1.0
    return SoElement(n, comps)


def _split_vectors(n):
    """The split vectors u, entries 0 and +-1, |u|^2 = 2: the self-dual triple
    (L, Re w, Im w) on R^n, n >= 4, and on R^4 then its mirror image under
    e_3 -> -e_3 with the third vector negated, an anti-self-dual triple."""
    self_dual = np.array((_rotation_sum(n, 2).comps, *_highest_weight_form(n, 2)))
    if n > 4:
        return self_dual
    mirror = [-1.0 if 3 in pair else 1.0 for pair in wedge_pairs(4)]
    # + 0.0 turns the mirror's -0.0 into the +0.0 that a printed basis shows
    return np.concatenate((self_dual, self_dual * mirror * np.array([[1.0], [1.0], [-1.0]]) + 0.0))


def negative_sym2_term_op(n, K, K1n):
    """Operator diagonal in the decomposable wedge basis with one negative
    sectional curvature, paired with the symmetric tensor diag(-1, 0, .., 1).

    The planes through the first and last coordinates carry curvature K > 0
    except the (first, last) plane which carries K1n < 0; interior planes
    also carry K (their value never reaches the term).  Decomposable
    eigenbases satisfy the first Bianchi identity automatically.
    """
    n = check_dimension(n, 3)
    K = float(K)
    K1n = float(K1n)
    if not 0.0 < K < math.inf:
        raise ValueError(f"K must be positive and finite, got {K}")
    if not -math.inf < K1n < 0.0:
        raise ValueError(f"K1n must be negative and finite, got {K1n}")
    op = _plane_op(n, lambda i, j: K1n if (i, j) == (0, n - 1) else K)
    h = np.zeros((n, n))
    h[0, 0] = -1.0
    h[n - 1, n - 1] = 1.0
    return op, Sym2(h)
