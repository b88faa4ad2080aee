"""Eigenvalue-sum control of curvature terms.

The central estimate: if |L T|^2 <= |hat T|^2 |L|^2 / C for every L in so(n),
then an operator whose lowest floor(C) eigenvalues average at least kappa
(for kappa <= 0) has curvature term at least kappa |hat T|^2 on T, and a
positive lowest sum forces the term positive unless hat T vanishes.  The
module supplies the constants C per tensor kind, the verdict logic, the
derived vanishing/rigidity thresholds, and two exact four-dimensional and
normal-endomorphism expansions of the term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import _hat_norms_consuming, _hat_rows, _terms
from .operators import CurvatureOperator, Spectrum, complex_sectional
from .tensors import Tensor0k


@dataclass(frozen=True)
class TensorKind:
    """Tensor kind feeding the estimate; build via the factory methods."""

    name: str
    k: int | None = None
    p: int | None = None

    @classmethod
    def generic(cls, k):
        k = int(k)
        if k < 1:
            raise ValueError(f"tensor order must be at least 1, got {k}")
        return cls("generic", k=k)

    @classmethod
    def sym2(cls):
        return cls("sym2")

    @classmethod
    def pform(cls, p):
        p = int(p)
        if p < 1:
            raise ValueError(f"form degree must be at least 1, got {p}")
        return cls("pform", p=p)

    @classmethod
    def curvature(cls):
        return cls("curvature")

    @classmethod
    def curvature_einstein(cls):
        return cls("curvature_einstein")

    @classmethod
    def weyl(cls):
        return cls("weyl")


def estimate_constant(kind: TensorKind, n, hat_ratio=None) -> float:
    """The constant C with |L T|^2 <= |hat T|^2 |L|^2 / C for the kind.

    p-forms give max(p, n-p) (degrees above the middle reduce through their
    complementary degree); symmetric tensors give n/2; Einstein curvature
    tensors and Weyl tensors give (n-1)/2.  The generic kind only has the
    order-squared bound, so it needs the caller's value of the ratio
    |hat T|^2 / |T|^2; plain non-Einstein curvature has no uniform constant
    and is rejected.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if kind.name == "pform":
        if not 1 <= kind.p <= n - 1:
            raise ValueError(f"form degree must be in 1..{n - 1}, got {kind.p}")
        return float(max(kind.p, n - kind.p))
    if kind.name == "sym2":
        return n / 2.0
    if kind.name in ("curvature_einstein", "weyl"):
        return (n - 1) / 2.0
    if kind.name == "generic":
        if hat_ratio is None:
            raise ValueError("generic tensors need the caller's |hat T|^2 / |T|^2 ratio")
        if hat_ratio <= 0:
            raise ValueError("the hat ratio must be positive")
        return float(hat_ratio) / (kind.k ** 2)
    if kind.name == "curvature":
        raise ValueError(
            "no uniform constant for general curvature tensors; "
            "use curvature_einstein or weyl"
        )
    raise ValueError(f"unknown tensor kind {kind.name!r}")


@dataclass(frozen=True)
class BochnerVerdict:
    """Outcome of the lowest-eigenvalue-average test.

    bound is the best certified coefficient, the average of the lowest
    floor(C) eigenvalues; holds means bound >= kappa, vanishing means the
    lowest sum is strictly positive.
    """

    C_used: float
    floorC: int
    lowest_sum: float
    bound: float
    holds: bool
    vanishing: bool


def lemma21_verdict(s: Spectrum, C, kappa) -> BochnerVerdict:
    """Test whether the lowest floor(C) eigenvalues average at least kappa.

    Requires C >= 1 and kappa <= 0; the estimate is only stated for
    nonpositive lower bounds, so positive kappa is rejected rather than
    extrapolated.
    """
    C = float(C)
    if C < 1.0:
        raise ValueError(f"C must be at least 1, got {C}")
    if kappa > 0.0:
        raise ValueError(f"kappa must be nonpositive, got {kappa}")
    floor_c = math.floor(C)
    if floor_c > s.size:
        raise ValueError(f"floor(C) = {floor_c} exceeds the spectrum size {s.size}")
    low, bound, holds, vanishing = _lemma21(s.eigenvalues, C, kappa)
    return BochnerVerdict(
        C_used=C,
        floorC=floor_c,
        lowest_sum=float(low),
        bound=float(bound),
        holds=bool(holds),
        vanishing=bool(vanishing),
    )


def _lemma21(vals, C, kappa):
    """(lowest sum, bound, holds, vanishing) of lemma21_verdict for stacked
    ascending spectra (..., N), unchecked."""
    floor_c = math.floor(C)
    low = np.sum(vals[..., :floor_c], axis=-1)
    bound = low / floor_c
    return low, bound, bound >= kappa, low > 0.0


def direct_term_check(r: CurvatureOperator, t, kappa):
    """Evaluate the curvature term against kappa |hat T|^2 directly.

    Returns (lhs, rhs, ok) with ok allowing 1e-10 of relative slack.  The
    term and the hat norm come from one set of hat rows.
    """
    if r.n != t.n:
        raise ValueError("dimension mismatch")
    rows = _hat_rows(t)
    lhs = _terms(r.mat, rows, rows)
    rhs, ok = _direct_check(lhs, _hat_norms_consuming(rows), kappa)
    return float(lhs), float(rhs), bool(ok)


def _direct_check(lhs, hat_sq, kappa):
    """(rhs, ok) of direct_term_check for stacked terms and hat norms."""
    rhs = kappa * hat_sq
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return rhs, lhs >= rhs - 1e-10 * scale


@dataclass(frozen=True)
class BettiVerdict:
    vanishing: bool
    parallel_only: bool


def betti_verdict(s: Spectrum, n, p) -> BettiVerdict:
    """Form-vanishing verdict from the lowest n-p eigenvalues.

    A positive lowest sum kills harmonic p-forms; a nonnegative one only
    forces them parallel.
    """
    n = int(n)
    p = int(p)
    if not 1 <= p <= n // 2:
        raise ValueError(f"p must be in 1..{n // 2}, got {p}")
    low = s.lowest_sum(n - p)
    return BettiVerdict(vanishing=low > 0.0, parallel_only=low >= 0.0)


def betti_bound(n, p, kappa, diameter, c_const) -> float:
    """Betti number bound binom(n,p) exp(c sqrt(-kappa D^2 p (n-p))).

    The constant c is the caller's; nothing here estimates it.
    """
    n = int(n)
    p = int(p)
    if not 1 <= p <= n - 1:
        raise ValueError(f"p must be in 1..{n - 1}, got {p}")
    if kappa > 0.0:
        raise ValueError(f"kappa must be nonpositive, got {kappa}")
    if diameter <= 0.0:
        raise ValueError(f"diameter must be positive, got {diameter}")
    if c_const <= 0.0:
        raise ValueError(f"the constant must be positive, got {c_const}")
    return math.comb(n, p) * math.exp(
        c_const * math.sqrt(-kappa * diameter * diameter * p * (n - p))
    )


@dataclass(frozen=True)
class TachibanaVerdict:
    parallel: bool
    constant_curvature: bool


def tachibana_verdict(s: Spectrum, n) -> TachibanaVerdict:
    """Einstein rigidity thresholds: lowest-2 sum in dimension 4, lowest
    floor((n-1)/2) sum above; nonnegative forces parallel curvature, strict
    positivity forces constant sectional curvature."""
    n = int(n)
    if n < 4:
        raise ValueError(f"dimension must be at least 4, got {n}")
    count = 2 if n == 4 else (n - 1) // 2
    low = s.lowest_sum(count)
    return TachibanaVerdict(parallel=low >= 0.0, constant_curvature=low > 0.0)


def fourdim_einstein_term(lams) -> float:
    """Curvature term of a four-dimensional Einstein operator on its own
    curvature tensor, from the six eigenvalues in a self-dual/anti-self-dual
    eigenbasis (first three self-dual)."""
    lams = [float(x) for x in lams]
    if len(lams) != 6:
        raise ValueError(f"expected six eigenvalues, got {len(lams)}")
    l1, l2, l3, l4, l5, l6 = lams
    return 16.0 * (
        l1 * (l2 - l3) ** 2
        + l2 * (l1 - l3) ** 2
        + l3 * (l1 - l2) ** 2
        + l4 * (l5 - l6) ** 2
        + l5 * (l4 - l6) ** 2
        + l6 * (l4 - l5) ** 2
    )


def normal_h_term(r: CurvatureOperator, h_matrix, tol=1e-10) -> float:
    """Curvature term on the (0,2)-tensor of a normal endomorphism, computed
    through its complex eigenbasis.

    With H normal, an orthonormal complex eigenbasis exists and the term is
    2 sum_{i<j} |h_i - conj(h_j)|^2 K_ij over the complex sectional
    curvatures of the eigenplanes.  Matches curvature_term on the dense
    (0,2)-tensor of H.
    """
    h = np.asarray(h_matrix, dtype=float)
    if h.shape != (r.n, r.n):
        raise ValueError(f"expected a {r.n}x{r.n} matrix, got {h.shape}")
    scale = max(1.0, float(np.abs(h).max()) ** 2)
    if float(np.abs(h @ h.T - h.T @ h).max()) > tol * scale:
        raise ValueError("matrix is not normal")
    # imported here: this is the only scipy user, and the import costs more
    # than every other module of the package together
    from scipy.linalg import schur

    tri, basis = schur(h.astype(complex), output="complex")
    eigs = np.diag(tri)
    total = 0.0
    for i in range(r.n):
        for j in range(i + 1, r.n):
            weight = abs(eigs[i] - np.conj(eigs[j])) ** 2
            if weight == 0.0:
                continue
            total += 2.0 * weight * complex_sectional(r, basis[:, i], basis[:, j])
    return total


def normal_h_tensor(h_matrix) -> Tensor0k:
    """The dense (0,2)-tensor of an endomorphism, for the real-side check."""
    return Tensor0k(np.asarray(h_matrix, dtype=float))
