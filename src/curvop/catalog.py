"""Exact constructors for the catalog of operators, forms, and extremal pairs.

Every numeric that a constructor advertises (hat norms, curvature terms,
spectra) is re-derived through the action and operator modules by the test
suites; nothing is hard-coded as a return value.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .action import SoElement
from .operators import CurvatureOperator, wedge_count
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
    """Orthonormal basis of wedge space over R^4 as six SoElements: a
    self-dual triple, then an anti-self-dual one, built from 1/sqrt(2)
    combinations."""
    n = 4
    s = 1.0 / np.sqrt(2.0)
    e12 = wedge_index(n, 0, 1)
    e13 = wedge_index(n, 0, 2)
    e14 = wedge_index(n, 0, 3)
    e23 = wedge_index(n, 1, 2)
    e24 = wedge_index(n, 1, 3)
    e34 = wedge_index(n, 2, 3)
    recipes = (
        ((e12, 1.0), (e34, 1.0)),
        ((e13, 1.0), (e24, -1.0)),
        ((e14, 1.0), (e23, 1.0)),
        ((e12, 1.0), (e34, -1.0)),
        ((e13, 1.0), (e24, 1.0)),
        ((e14, 1.0), (e23, -1.0)),
    )
    elements = []
    for recipe in recipes:
        comps = np.zeros(wedge_count(n))
        for idx, sign in recipe:
            comps[idx] = sign * s
        elements.append(SoElement(n, comps))
    return tuple(elements)


def singer_thorpe_op(lams):
    """Operator diagonal in the Singer-Thorpe basis with the given six
    eigenvalues (first three on the self-dual triple).

    Satisfies the first Bianchi identity exactly when the self-dual
    eigenvalues and the anti-self-dual eigenvalues have equal sums; the
    certificate is detected from the stored matrix, not assumed.
    """
    lams = [float(x) for x in lams]
    if len(lams) != 6:
        raise ValueError(f"expected six eigenvalues, got {len(lams)}")
    if not all(map(math.isfinite, lams)):
        raise ValueError(f"eigenvalues must be finite, got {lams}")
    basis = singer_thorpe_basis()
    mat = np.zeros((6, 6))
    for lam, xi in zip(lams, basis):
        mat += lam * np.outer(xi.comps, xi.comps)
    return CurvatureOperator(4, mat), basis


def cp2_op() -> CurvatureOperator:
    """Curvature operator of the complex projective plane (Fubini-Study
    normalization): Singer-Thorpe eigenvalues (0, 0, 6, 2, 2, 2)."""
    op, _ = singer_thorpe_op((0.0, 0.0, 6.0, 2.0, 2.0, 2.0))
    return op


def sphere_product_op(p, n) -> CurvatureOperator:
    """Curvature operator of the product of a unit p-sphere with flat space.

    Wedges inside the sphere block are fixed, everything else is killed.
    """
    n = check_dimension(n)
    p = _integer(p, "sphere dimension", 2, n)
    diag = np.zeros(wedge_count(n))
    for which, (i, j) in enumerate(wedge_pairs(n)):
        if j < p:
            diag[which] = 1.0
    return CurvatureOperator(n, np.diag(diag))


def product_of_spheres_op(k, n) -> CurvatureOperator:
    """Curvature operator of k unit 2-spheres times flat space.

    Eigenvectors e_{2i}^e_{2i+1} with eigenvalue one, kernel otherwise.
    """
    n = check_dimension(n)
    k = _integer(k, "k", 1, n // 2)
    diag = np.zeros(wedge_count(n))
    for i in range(k):
        diag[wedge_index(n, 2 * i, 2 * i + 1)] = 1.0
    return CurvatureOperator(n, np.diag(diag))


def negative_2form_term_op(n, lam):
    """An (n-1)-nonnegative operator paired with a 2-form on which its
    curvature term is negative.

    The self-dual triple (L, Re w, Im w) / sqrt(2), L = e_0^e_1 + e_2^e_3 and
    w = (e^0 + i e^1)^(e^2 + i e^3), takes eigenvalues (-(n-3) lam, -(n-3) lam,
    2n lam); every remaining direction takes 2 lam.  The returned form is the
    Kaehler form Im w = e^0^e^3 + e^1^e^2, and the term is -4 lam |Im w|^2.
    """
    n = check_dimension(n, 4)
    lam = float(lam)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"the scale must be positive and finite, got {lam}")
    # 2n lam, the largest eigenvalue, bounds every entry; keeping it below
    # the bound CurvatureOperator takes means no product below overflows
    if 2.0 * n * lam >= 2.0 ** 1023:
        raise ValueError(f"the scale must keep 2n*lam below 2**1023, got lam={lam} at n={n}")
    real, imag = _highest_weight_form(n, 2)
    mat = 2.0 * lam * np.eye(wedge_count(n))
    for weight, comps in zip((-(n - 3.0), -(n - 3.0), 2.0 * n), (_rotation_sum(n, 2).comps, real, imag)):
        comps = comps / math.sqrt(2.0)
        mat += (weight * lam - 2.0 * lam) * np.outer(comps, comps)
    return CurvatureOperator(n, mat), PForm(n, 2, imag)


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
    diag = np.full(wedge_count(n), K)
    diag[wedge_index(n, 0, n - 1)] = K1n
    op = CurvatureOperator(n, np.diag(diag))
    h = np.zeros((n, n))
    h[0, 0] = -1.0
    h[n - 1, n - 1] = 1.0
    return op, Sym2(h)
