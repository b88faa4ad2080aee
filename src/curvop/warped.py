"""Doubly warped product spectra and the constant-scalar-curvature shooting ODE.

The metric dr^2 + phi^2 ds_p^2 + psi^2 ds_q^2 on an interval times a product
of spheres has a curvature operator diagonal in the adapted wedge basis with
five eigenvalue families; the round sphere (phi = sin, psi = cos) forces all
of them to one, which pins the formulas.  A compactly supported bump added to
phi'' drives the radial family negative while leaving the others near one.
The single-warped constant-scalar-curvature profile reduces to a planar ODE
integrated here with fixed-step classical Runge-Kutta and a bisected crossing
event.  Both integrators return the trajectory as t, x and y columns in a
ShootResult, and trajectory_scal takes the x and y columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import CurvatureOperator
from .tensors import _integer, check_dimension, wedge_count, wedge_pairs


@dataclass(frozen=True)
class WarpJet:
    """Radius and 2-jets of both warping functions; positive on the interior."""

    r: float
    phi: float
    dphi: float
    d2phi: float
    psi: float
    dpsi: float
    d2psi: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r, self.dphi, self.d2phi, self.dpsi, self.d2psi))):
            raise ValueError("jet values must be finite")
        if not (0.0 < self.phi < math.inf and 0.0 < self.psi < math.inf):
            raise ValueError("warping functions must be positive and finite")


def round_jet(r) -> WarpJet:
    """Jet of the unit round sphere profile phi = sin, psi = cos."""
    return WarpJet(
        r=r,
        phi=math.sin(r),
        dphi=math.cos(r),
        d2phi=-math.sin(r),
        psi=math.cos(r),
        dpsi=-math.sin(r),
        d2psi=-math.cos(r),
    )


def _check_factors(p, q):
    """(p, q) as ints; ValueError unless both sphere factors have dimension
    at least 2."""
    p, q = _integer(p, "p"), _integer(q, "q")
    if p < 2 or q < 2:
        raise ValueError(f"both sphere factors need dimension >= 2, got {p}, {q}")
    return p, q


def dwp_eigenvalues(p, q, jet: WarpJet):
    """Eigenvalue families of the doubly warped curvature operator.

    Returns (value, multiplicity, label) tuples: radial wedges against each
    sphere factor, plane wedges inside each factor, and mixed wedges.  The
    multiplicities total the wedge dimension of the (1+p+q)-space.  Raises
    ValueError when a value does not fit in a float.
    """
    p, q = _check_factors(p, q)
    try:
        families = [
            (-jet.d2phi / jet.phi, p, "radial-p"),
            (-jet.d2psi / jet.psi, q, "radial-q"),
            ((1.0 - jet.dphi ** 2) / jet.phi ** 2, p * (p - 1) // 2, "plane-p"),
            ((1.0 - jet.dpsi ** 2) / jet.psi ** 2, q * (q - 1) // 2, "plane-q"),
            (-(jet.dphi * jet.dpsi) / (jet.phi * jet.psi), p * q, "mixed"),
        ]
        if all(math.isfinite(value) for value, _, _ in families):
            return families
    except (OverflowError, ZeroDivisionError):
        pass
    raise ValueError("the doubly warped eigenvalues exceed the float range")


def dwp_eigenvalue_list(p, q, jet: WarpJet) -> np.ndarray:
    """All wedge eigenvalues with multiplicity, ascending."""
    out = []
    for value, mult, _ in dwp_eigenvalues(p, q, jet):
        out.extend([value] * mult)
    return np.sort(np.array(out))


def dwp_operator(p, q, jet: WarpJet) -> CurvatureOperator:
    """The operator itself, diagonal in the adapted wedge basis.

    Coordinates are ordered radial, then the p-sphere block, then the
    q-sphere block; a decomposable eigenbasis makes the operator Bianchi.
    """
    n = check_dimension(1 + p + q)
    radial_p, radial_q, plane_p, plane_q, mixed = dwp_eigenvalues(p, q, jet)
    diag = np.zeros(wedge_count(n))
    for which, (i, j) in enumerate(wedge_pairs(n)):
        i_block = 0 if i == 0 else (1 if i <= p else 2)
        j_block = 0 if j == 0 else (1 if j <= p else 2)
        if i_block == 0:
            diag[which] = radial_p[0] if j_block == 1 else radial_q[0]
        elif i_block == 1:
            diag[which] = plane_p[0] if j_block == 1 else mixed[0]
        else:
            diag[which] = plane_q[0]
    return CurvatureOperator(n, np.diag(diag))


def _smoothstep5(t):
    """Quintic smoothstep on [0, 1]: value, slope, and curvature flat at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _bump(u):
    """C^2 window supported on [-1, 1] with unit peak."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) < 1.0, _smoothstep5(1.0 - np.abs(u)), 0.0)


def _smoothstep5_i1(t):
    t = np.clip(t, 0.0, 1.0)
    return t ** 4 * (2.5 + t * (-3.0 + t))


def _bump_i1(u):
    """Integral of the window from -1 to u."""
    u = np.asarray(u, dtype=float)
    half = _smoothstep5_i1(1.0)
    below = _smoothstep5_i1(1.0 + np.minimum(u, 0.0))
    above = 2.0 * half - _smoothstep5_i1(1.0 - np.maximum(u, 0.0))
    return np.where(u <= 0.0, below, above)


def _smoothstep5_i2(t):
    t = np.clip(t, 0.0, 1.0)
    return t ** 5 * (0.5 + t * (-0.5 + t / 7.0))


def _bump_i2(u):
    """Double integral of the window from -1 to u."""
    u = np.asarray(u, dtype=float)
    half = _smoothstep5_i1(1.0)
    below = _smoothstep5_i2(1.0 + np.minimum(u, 0.0))
    up = np.maximum(u, 0.0)
    above = _smoothstep5_i2(1.0) + 2.0 * half * up - (
        _smoothstep5_i2(1.0) - _smoothstep5_i2(1.0 - up)
    )
    return np.where(u <= 0.0, below, above)


@dataclass(frozen=True)
class PerturbedProfile:
    """Round profile with a compactly supported bump added to phi''.

    phi' and phi are recovered by exact integration of the bump, preserving
    phi(0) = 0 and phi'(0) = 1; psi stays cos.  c1_bound is a conservative
    bound on the C^1 distance to sin.
    """

    p: int
    q: int
    amp: float
    center: float
    width: float
    c1_bound: float

    def __call__(self, r) -> WarpJet:
        u = (r - self.center) / self.width
        d2phi = -math.sin(r) + self.amp * float(_bump(u))
        dphi = math.cos(r) + self.amp * self.width * float(_bump_i1(u))
        phi = math.sin(r) + self.amp * self.width ** 2 * float(_bump_i2(u))
        return WarpJet(
            r=r,
            phi=phi,
            dphi=dphi,
            d2phi=d2phi,
            psi=math.cos(r),
            dpsi=-math.sin(r),
            d2psi=-math.cos(r),
        )


def perturbed_profile(p, q, amp, center, width) -> PerturbedProfile:
    """Profile family for the doubly warped sphere with a phi'' bump.

    Both sphere factors need dimension at least 2, the amplitude must be
    finite, and the bump support [center - width, center + width] must stay
    inside the open interval (0, pi/2).
    """
    p, q = _check_factors(p, q)
    amp = float(amp)
    center = float(center)
    width = float(width)
    if not math.isfinite(amp):
        raise ValueError(f"amp must be finite, got {amp}")
    # NaN fails every comparison, so these also reject a NaN center or width
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    if not (center - width > 0.0 and center + width < math.pi / 2.0):
        raise ValueError("bump support must stay inside the open interval (0, pi/2)")
    bound = abs(amp) * width * (width + math.pi / 2.0)
    return PerturbedProfile(p=p, q=q, amp=amp, center=center, width=width, c1_bound=bound)


def _warp_dimension(n):
    """n as an int; ValueError unless n >= 3 and (n-2)/2 is a finite float."""
    n = _integer(n, "dimension", 3)
    try:
        float(n - 2)
    except OverflowError:
        raise ValueError(f"dimension must keep (n-2)/2 a finite float, got {n}") from None
    return n


def scal_single_warped(n, rho, drho, d2rho) -> float:
    """Scalar curvature of dr^2 + rho^2 ds_{n-1}^2 from the 2-jet of rho."""
    n = _warp_dimension(n)
    if not rho > 0:
        raise ValueError(f"the warping function must be positive, got {rho}")
    return -2.0 * (n - 1) * d2rho / rho + (n - 2.0) * (n - 1) * (1.0 - drho ** 2) / rho ** 2


def ode_rhs(n, x, y):
    """Phase-plane field of the constant-scalar-curvature profile equation."""
    return y, -(x * x + 0.5 * (n - 2) * (y * y - 1.0)) / x


def _rk4_columns(n, x, y, h, steps, armed=math.inf):
    """Up to `steps` classical Runge-Kutta steps of size h from (x, y).

    ode_rhs is inlined with its floating-point expressions in their order,
    so every step equals one taken through it bit for bit.  Returns
    (xs, ys, status, last): xs and ys hold the start and each accepted step;
    status is "ok", "blow-down" once x leaves the positive half plane or a
    value is not finite, or "crossed" at the first step taking y from above
    armed to at most 0; last is the (x, y) of the final step taken, accepted
    or not.
    """
    inf = math.inf
    c = 0.5 * (n - 2)
    half = 0.5 * h
    xs = [x]
    ys = [y]
    nx, ny = x, y
    status = "ok"
    for _ in range(steps):
        k1 = -(x * x + c * (y * y - 1.0)) / x
        x2 = x + half * y
        y2 = y + half * k1
        k2 = -(x2 * x2 + c * (y2 * y2 - 1.0)) / x2
        x3 = x + half * y2
        y3 = y + half * k2
        k3 = -(x3 * x3 + c * (y3 * y3 - 1.0)) / x3
        x4 = x + h * y3
        y4 = y + h * k3
        k4 = -(x4 * x4 + c * (y4 * y4 - 1.0)) / x4
        nx = x + h * (y + 2.0 * y2 + 2.0 * y3 + y4) / 6.0
        ny = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        # NaN fails every comparison, so this is also the finiteness check
        if not (0.0 < nx < inf and -inf < ny < inf):
            status = "blow-down"
            break
        if y > armed and ny <= 0.0:
            status = "crossed"
            break
        x = nx
        y = ny
        xs.append(x)
        ys.append(y)
    return xs, ys, status, (nx, ny)


@dataclass(frozen=True)
class ShootResult:
    """A trajectory as columns, plus the first return to the axis when one
    is found.

    t, x and y are the trajectory, ending at the refined axis return when
    there is one; status is "ok" (integrate_warp_ode ran to t_max),
    "crossed", "no-crossing", or "blow-down"; crossing holds (time, x) at
    the refined axis return.
    """

    t: tuple
    x: tuple
    y: tuple
    crossing: tuple | None
    status: str


# The most RK4 steps one integration may take; 10**6 steps take about a
# second and 120 MB of trajectory.
_MAX_STEPS = 10 ** 6


def _step_count(step, t_max):
    """round(t_max / step); raises ValueError unless the step and the time
    span are positive and finite and their ratio is at most _MAX_STEPS."""
    if not (0.0 < step < math.inf and 0.0 < t_max < math.inf):
        raise ValueError(f"step and t_max must be positive and finite, got {step} and {t_max}")
    if t_max / step > _MAX_STEPS:
        raise ValueError(f"t_max / step must be finite and at most {_MAX_STEPS}, got {t_max} / {step}")
    return int(round(t_max / step))


def integrate_warp_ode(n, x0, y0, step, t_max) -> ShootResult:
    """Fixed-step classical Runge-Kutta integration of the profile ODE.

    Status "ok" when it reaches t_max, or "blow-down" when it stops early
    because x left the positive half plane; crossing is always None.
    """
    n = _warp_dimension(n)
    steps = _step_count(step, t_max)
    if not (0.0 < x0 < math.inf and math.isfinite(y0)):
        raise ValueError(f"x must start positive and y finite, got {x0} and {y0}")
    xs, ys, status, _ = _rk4_columns(n, float(x0), float(y0), step, steps)
    ts = tuple(i * step for i in range(len(xs)))
    return ShootResult(ts, tuple(xs), tuple(ys), None, status)


# _refine_crossing bisects until |y| is at most _CROSSING_TOL, for at most
# _CROSSING_ITERS halvings.
_CROSSING_TOL = 1e-10
_CROSSING_ITERS = 200


def _refine_crossing(n, t, x, y, h):
    """Bisect the step size from the state (t, x, y) until the probe lands
    on the axis."""
    lo, hi = 0.0, h
    tau = h
    *_, (x1, y1) = _rk4_columns(n, x, y, tau, 1)
    for _ in range(_CROSSING_ITERS):
        if abs(y1) <= _CROSSING_TOL:
            break
        tau = 0.5 * (lo + hi)
        *_, (x1, y1) = _rk4_columns(n, x, y, tau, 1)
        if y1 > 0.0:
            lo = tau
        else:
            hi = tau
    return t + tau, x1, y1


def ode_shoot(n, x0, step=1e-4, t_max=20.0) -> ShootResult:
    """Shoot from (x0, 0) and report the first return to the axis.

    The admissible start has x0^2 at most (n-2)/2; strictly inside, the
    orbit circles the center and returns with a larger radius, which is
    asserted.  Starting at the center itself simply never crosses.
    """
    n = _warp_dimension(n)
    if not x0 > 0:
        raise ValueError(f"x0 must be positive, got {x0}")
    limit = 0.5 * (n - 2)
    if x0 * x0 > limit * (1.0 + 1e-12):
        raise ValueError(f"x0^2 must be at most (n-2)/2 = {limit}, got {x0 * x0}")
    steps = _step_count(step, t_max)
    # roundoff-level y (a start at the center) must not arm the detector
    xs, ys, status, _ = _rk4_columns(n, float(x0), 0.0, step, steps, armed=1e-8)
    ts = [i * step for i in range(len(xs))]
    if status != "crossed":
        status = "no-crossing" if status == "ok" else status
        return ShootResult(tuple(ts), tuple(xs), tuple(ys), None, status)
    t_cross, x1, y1 = _refine_crossing(n, ts[-1], xs[-1], ys[-1], step)
    if x1 * x1 <= limit:
        raise AssertionError(f"axis return at x = {x1} did not leave the disk x^2 <= {limit}")
    ts.append(t_cross)
    xs.append(x1)
    ys.append(y1)
    return ShootResult(tuple(ts), tuple(xs), tuple(ys), (t_cross, x1), "crossed")


def trajectory_scal(n, xs, ys) -> list:
    """Scalar curvature along a trajectory's x and y columns, as floats.

    scal_single_warped at each point, with the curvature of the profile
    taken from the field: the expressions of both, in their order.
    """
    n = _warp_dimension(n)
    if xs and min(xs) <= 0.0:
        raise ValueError("the warping function must be positive along the trajectory")
    c = 0.5 * (n - 2)
    a = -2.0 * (n - 1)
    b = (n - 2.0) * (n - 1)
    # y ** 2 and x ** 2 go through pow, as in scal_single_warped; y * y
    # rounds differently on about one value in a thousand
    return [
        a * (-(x * x + c * (y * y - 1.0)) / x) / x + b * (1.0 - y ** 2) / x ** 2
        for x, y in zip(xs, ys)
    ]
