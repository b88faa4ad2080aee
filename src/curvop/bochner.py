"""Eigenvalue-sum control of curvature terms.

The central estimate: if |L T|^2 <= |hat T|^2 |L|^2 / C for every L in so(n),
then an operator whose lowest floor(C) eigenvalues average at least kappa
(for kappa <= 0) has curvature term at least kappa |hat T|^2 on T, and a
positive lowest sum forces the term positive unless hat T vanishes.  Each
tensor kind names its highest weight lam, which gives Lemma 2.2's factor
|lam|^2 and C = Cas(lam) / |lam|^2; _RULES is the one table of the verdicts,
read by _apply_rule.  The module also holds the Betti bound and two exact
four-dimensional and normal-endomorphism expansions of the term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import _hat_norms_consuming, _layout, _terms
from .operators import CurvatureOperator, Spectrum, complex_sectional
from .tensors import _integer, _real, _real_array, _require_finite, _scale


@dataclass(frozen=True)
class TensorKind:
    """Tensor kind feeding the estimate; build via the factory methods."""

    name: str
    k: int | None = None
    p: int | None = None

    @classmethod
    def generic(cls, k):
        return cls("generic", k=_integer(k, "tensor order", 1))

    @classmethod
    def sym2(cls):
        return cls("sym2")

    @classmethod
    def pform(cls, p):
        return cls("pform", p=_integer(p, "form degree", 1))

    @classmethod
    def curvature_einstein(cls):
        return cls("curvature_einstein")

    @classmethod
    def weyl(cls):
        return cls("weyl")


def _weight_norms(kind: TensorKind, n):
    """(Cas(lam), |lam|^2) at the kind's highest weight lam, an integer tuple:
    min(p, n-p) ones for p-forms, (2) for symmetric tensors, (2, 2) for the
    curvature kinds, (k) for generic (0,k)-tensors.  Cas(lam) = sum lam_i^2 +
    sum lam_i (n - 2i).  The curvature kinds are rejected below n = 3, where
    Cas(lam) / |lam|^2 is below 1 and no verdict takes it."""
    n = _integer(n, "dimension", 2)
    if kind.name == "pform":
        p = _integer(kind.p, "form degree", 1, n - 1)
        lam = (1,) * min(p, n - p)
    elif kind.name in ("curvature_einstein", "weyl"):
        if n < 3:
            raise ValueError(f"{kind.name} tensors need dimension at least 3, got {n}")
        lam = (2, 2)
    elif kind.name == "sym2":
        lam = (2,)
    elif kind.name == "generic":
        lam = (kind.k,)
    else:
        raise ValueError(f"unknown tensor kind {kind.name!r}")
    norm_sq = sum(x * x for x in lam)
    return norm_sq + sum(x * (n - 2 * i) for i, x in enumerate(lam, 1)), norm_sq


def estimate_constant(kind: TensorKind, n) -> float:
    """The constant C with |L T|^2 <= |hat T|^2 |L|^2 / C for the kind.

    C is Cas(lam) / |lam|^2 at the kind's highest weight lam, met with
    equality at the real part of a highest-weight tensor: max(p, n-p) for
    p-forms, n/2 for symmetric tensors, (n-1)/2 for Einstein curvature and
    Weyl tensors, (n+k-2)/k for generic (0,k)-tensors.  Only the division of
    the two integers rounds.
    """
    cas, norm_sq = _weight_norms(kind, n)
    return cas / norm_sq


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


# A row per verdict: its count of lowest eigenvalues, from n and p or C, and
# whether its weak test is the lowest average at least kappa (Lemma 2.1) or
# the lowest sum at least 0 (an average can round a negative sum to -0.0)
_RULES = {
    "betti": (lambda n, p: n - p, False),
    "tachibana": (lambda n, _: 2 if n == 4 else (n - 1) // 2, False),
    "lemma-2.1": (lambda n, c: math.floor(c), True),
}


def _apply_rule(rule, vals, n, arg=None, kappa=0.0):
    """(count, lowest sum, average, weak test, strict test: a positive sum) of
    a row of _RULES on stacked ascending spectra (..., N), unchecked."""
    count_of, on_average = _RULES[rule]
    count = count_of(n, arg)
    low = np.sum(vals[..., :count], axis=-1)
    average = low / count
    return count, low, average, average >= kappa if on_average else low >= 0.0, low > 0.0


def lemma21_verdict(s: Spectrum, C, kappa) -> BochnerVerdict:
    """Test whether the lowest floor(C) eigenvalues average at least kappa.

    Requires a finite C >= 1 and a finite kappa <= 0; the estimate is only
    stated for nonpositive lower bounds, so positive kappa is rejected rather
    than extrapolated.
    """
    C = _real(C, "C")
    if not 1.0 <= C < math.inf:
        raise ValueError(f"C must be finite and at least 1, got {C}")
    _check_kappa(kappa)
    count, low, bound, holds, vanishing = _apply_rule("lemma-2.1", s.eigenvalues, None, C, kappa)
    if count > s.size:
        raise ValueError(f"floor(C) = {count} exceeds the spectrum size {s.size}")
    return BochnerVerdict(
        C_used=C,
        floorC=count,
        lowest_sum=float(low),
        bound=float(bound),
        holds=bool(holds),
        vanishing=bool(vanishing),
    )


def _check_kappa(kappa):
    """Raise ValueError unless kappa is a finite and nonpositive real number."""
    if not -math.inf < _real(kappa, "kappa") <= 0.0:
        raise ValueError(f"kappa must be finite and nonpositive, got {kappa}")


def direct_term_check(r: CurvatureOperator, t, kappa):
    """Evaluate the curvature term against kappa |hat T|^2 directly.

    Returns (lhs, rhs, ok) with ok allowing _DIRECT_SLACK of relative
    slack: _direct_terms and _direct_check on a batch of one.  kappa must
    be a finite real number.
    """
    if r.n != t.n:
        raise ValueError("dimension mismatch")
    if not math.isfinite(_real(kappa, "kappa")):
        raise ValueError(f"kappa must be finite, got {kappa}")
    kind, values, degree = _layout(t)
    lhs, hat_sq = _direct_terms(r.mat[None], values[None], t.n, kind, degree)
    rhs, ok = _direct_check(lhs, hat_sq, kappa, _DIRECT_SLACK)
    return float(lhs[0]), float(rhs[0]), bool(ok[0])


def _direct_terms(mats, values, n, kind, degree=None):
    """Curvature terms <R(hat T), hat T> under stacked operator matrices and
    squared hat norms of values of a kind of action._KINDS stacked along the
    first axis, both from one set of hat rows."""
    rows = kind.rows(values, n, degree)
    return _terms(mats, rows, rows), _hat_norms_consuming(rows)


# relative slack of direct_term_check, and of normal_h_term's normality and
# eigenbasis residuals against _scale of the matrix's largest entry squared
_DIRECT_SLACK = 1e-10
_NORMAL_TOL = 1e-10

# Weight of the skew part in the Hermitian matrix normal_h_term diagonalizes.
# H's eigenvalue s + ia becomes s + gamma a there; an irrational gamma keeps
# distinct eigenvalues of H distinct for rational s and a, and the residual
# check catches any pair it merges.
_NORMAL_GAMMA = math.sqrt(2.0) - 1.0


def _direct_check(lhs, hat_sq, kappa, slack):
    """(rhs, ok) of direct_term_check for stacked terms and hat norms, with
    lhs allowed slack times _scale(lhs, rhs) below rhs."""
    rhs = kappa * hat_sq
    return rhs, lhs >= rhs - slack * _scale(lhs, rhs)


def _check_spectrum_size(s, n):
    """Raise ValueError unless s has the n(n-1)/2 eigenvalues of an
    operator on the 2-vectors of R^n."""
    size = n * (n - 1) // 2
    if s.size != size:
        raise ValueError(f"a spectrum in dimension {n} has {size} eigenvalues, got {s.size}")


@dataclass(frozen=True)
class BettiVerdict:
    vanishing: bool
    parallel_only: bool


def betti_verdict(s: Spectrum, n, p) -> BettiVerdict:
    """Form-vanishing verdict from the lowest n-p eigenvalues.

    A positive lowest sum kills harmonic p-forms; a nonnegative one only
    forces them parallel.
    """
    n = _integer(n, "dimension")
    p = _integer(p, "p", 1, n // 2)
    _check_spectrum_size(s, n)
    _, _, _, weak, strict = _apply_rule("betti", s.eigenvalues, n, p)
    return BettiVerdict(vanishing=bool(strict), parallel_only=bool(weak))


def betti_bound(n, p, kappa, diameter, c_const) -> float:
    """Betti number bound binom(n,p) exp(c sqrt(-kappa D^2 p (n-p))).

    The constant c is the caller's; nothing here estimates it.  Raises
    ValueError when an input is not finite or the bound exceeds the float
    range.
    """
    n = _integer(n, "dimension")
    p = _integer(p, "p", 1, n - 1)
    _check_kappa(kappa)
    if not 0.0 < _real(diameter, "diameter") < math.inf:
        raise ValueError(f"diameter must be positive and finite, got {diameter}")
    if not 0.0 < _real(c_const, "the constant") < math.inf:
        raise ValueError(f"the constant must be positive and finite, got {c_const}")
    try:
        bound = math.comb(n, p) * math.exp(
            c_const * math.sqrt(-kappa * diameter * diameter * p * (n - p))
        )
    except OverflowError:
        bound = math.inf
    if bound == math.inf:
        raise ValueError("the bound exceeds the float range")
    return bound


@dataclass(frozen=True)
class TachibanaVerdict:
    parallel: bool
    constant_curvature: bool


def tachibana_verdict(s: Spectrum, n) -> TachibanaVerdict:
    """Einstein rigidity thresholds: lowest-2 sum in dimension 4, lowest
    floor((n-1)/2) sum above; nonnegative forces parallel curvature, strict
    positivity forces constant sectional curvature."""
    n = _integer(n, "dimension", 4)
    _check_spectrum_size(s, n)
    _, _, _, weak, strict = _apply_rule("tachibana", s.eigenvalues, n)
    return TachibanaVerdict(parallel=bool(weak), constant_curvature=bool(strict))


def fourdim_einstein_term(lams) -> float:
    """Curvature term of a four-dimensional Einstein operator on its own
    curvature tensor, from the six eigenvalues in a self-dual/anti-self-dual
    eigenbasis (first three self-dual), six finite real numbers."""
    lams = [_real(x, "eigenvalue") for x in lams]
    if len(lams) != 6:
        raise ValueError(f"expected six eigenvalues, got {len(lams)}")
    _require_finite(np.array(lams), "eigenvalues")
    l1, l2, l3, l4, l5, l6 = lams
    return 16.0 * (
        l1 * (l2 - l3) ** 2
        + l2 * (l1 - l3) ** 2
        + l3 * (l1 - l2) ** 2
        + l4 * (l5 - l6) ** 2
        + l5 * (l4 - l6) ** 2
        + l6 * (l4 - l5) ** 2
    )


def normal_h_term(r: CurvatureOperator, h_matrix) -> float:
    """Curvature term on the (0,2)-tensor of a normal endomorphism, computed
    through its complex eigenbasis.

    With H normal, an orthonormal complex eigenbasis exists and the term is
    2 sum_{i<j} |h_i - conj(h_j)|^2 K_ij over the complex sectional
    curvatures of the eigenplanes.  The basis is the eigenbasis of the
    Hermitian matrix S - i gamma A, S and A the symmetric and skew parts of
    H, which commute because H is normal; the h_i are the Rayleigh quotients
    of H on it.  Matches curvature_term on the dense (0,2)-tensor of H.
    Raises ValueError when H is not finite or not normal, or when that basis
    leaves a residual |HV - V diag(h)| above the normality tolerance.
    """
    h = _real_array(h_matrix, "matrix entries")
    if h.shape != (r.n, r.n):
        raise ValueError(f"expected a {r.n}x{r.n} matrix, got {h.shape}")
    scale = _scale(float(np.abs(h).max()) ** 2)
    if float(np.abs(h @ h.T - h.T @ h).max()) > _NORMAL_TOL * scale:
        raise ValueError("matrix is not normal")
    sym = 0.5 * (h + h.T)
    skew = 0.5 * (h - h.T)
    _, basis = np.linalg.eigh(sym - (1j * _NORMAL_GAMMA) * skew)
    h_basis = h @ basis
    eigs = np.sum(basis.conj() * h_basis, axis=0)
    if float(np.abs(h_basis - basis * eigs).max()) > _NORMAL_TOL * scale:
        raise ValueError("no orthonormal eigenbasis of the matrix within the normality tolerance")
    total = 0.0
    for i in range(r.n):
        for j in range(i + 1, r.n):
            weight = abs(eigs[i] - np.conj(eigs[j])) ** 2
            if weight == 0.0:
                continue
            total += 2.0 * weight * complex_sectional(r, basis[:, i], basis[:, j])
    return total
