"""Warped product spectra and the shooting integrator."""

import math

import numpy as np
import pytest

from curvop import (
    WarpJet,
    dwp_eigenvalue_list,
    dwp_eigenvalues,
    dwp_operator,
    integrate_warp_ode,
    ode_rhs,
    ode_shoot,
    perturbed_profile,
    round_jet,
    scal_single_warped,
    trajectory_scal,
)


def reference_trajectory_scal(n, xs, ys):
    """scal_single_warped at each point, with the curvature from ode_rhs."""
    return [scal_single_warped(n, x, y, ode_rhs(n, x, y)[1]) for x, y in zip(xs, ys)]


def _rk4_step(n, x, y, h):
    """One classical Runge-Kutta step through ode_rhs."""
    k1x, k1y = ode_rhs(n, x, y)
    k2x, k2y = ode_rhs(n, x + 0.5 * h * k1x, y + 0.5 * h * k1y)
    k3x, k3y = ode_rhs(n, x + 0.5 * h * k2x, y + 0.5 * h * k2y)
    k4x, k4y = ode_rhs(n, x + h * k3x, y + h * k3y)
    return (
        x + h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0,
        y + h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0,
    )


def reference_integrate_warp_ode(n, x0, y0, step, t_max):
    """One ode_rhs step at a time, as ((t, x, y) columns, status)."""
    ts, xs, ys = [0.0], [float(x0)], [float(y0)]
    x, y = float(x0), float(y0)
    for i in range(1, int(round(t_max / step)) + 1):
        x, y = _rk4_step(n, x, y, step)
        if not (x > 0.0) or not math.isfinite(x) or not math.isfinite(y):
            return (tuple(ts), tuple(xs), tuple(ys)), "blow-down"
        ts.append(i * step)
        xs.append(x)
        ys.append(y)
    return (tuple(ts), tuple(xs), tuple(ys)), "ok"


def reference_ode_shoot(n, x0, step, t_max):
    """One ode_rhs step at a time and the crossing bisection, as
    ((t, x, y) columns, crossing, status)."""
    ts, xs, ys = [0.0], [float(x0)], [0.0]
    x, y = float(x0), 0.0
    for i in range(1, int(round(t_max / step)) + 1):
        nx, ny = _rk4_step(n, x, y, step)
        if not (nx > 0.0) or not math.isfinite(nx) or not math.isfinite(ny):
            return (tuple(ts), tuple(xs), tuple(ys)), None, "blow-down"
        if y > 1e-8 and ny <= 0.0:
            lo, hi = 0.0, step
            tau = step
            x1, y1 = _rk4_step(n, x, y, tau)
            for _ in range(200):
                if abs(y1) <= 1e-10:
                    break
                tau = 0.5 * (lo + hi)
                x1, y1 = _rk4_step(n, x, y, tau)
                if y1 > 0.0:
                    lo = tau
                else:
                    hi = tau
            t_cross = ts[-1] + tau
            ts.append(t_cross)
            xs.append(x1)
            ys.append(y1)
            return (tuple(ts), tuple(xs), tuple(ys)), (t_cross, x1), "crossed"
        x, y = nx, ny
        ts.append(i * step)
        xs.append(x)
        ys.append(y)
    return (tuple(ts), tuple(xs), tuple(ys)), None, "no-crossing"


class TestDwpEigenvalues:
    def test_round_gives_all_ones(self):
        for p in (2, 3, 4):
            for q in (2, 3, 4):
                for r in (0.2, 0.8, 1.4):
                    evs = dwp_eigenvalue_list(p, q, round_jet(r))
                    assert np.abs(evs - 1.0).max() < 1e-12
                    assert evs.size == math.comb(p + q + 1, 2)

    def test_multiplicity_tally(self):
        fams = dwp_eigenvalues(2, 2, round_jet(0.5))
        assert [m for _, m, _ in fams] == [2, 2, 1, 1, 4]
        assert sum(m for _, m, _ in fams) == 10

    def test_labels(self):
        labels = [lab for _, _, lab in dwp_eigenvalues(3, 2, round_jet(0.5))]
        assert labels == ["radial-p", "radial-q", "plane-p", "plane-q", "mixed"]

    def test_radial_family_tracks_second_derivative(self):
        jet = WarpJet(r=0.8, phi=0.7, dphi=0.6, d2phi=0.35, psi=0.7, dpsi=-0.6, d2psi=-0.7)
        fams = dwp_eigenvalues(2, 2, jet)
        assert fams[0][0] == pytest.approx(-0.5)

    def test_operator_is_bianchi_and_identity_when_round(self):
        op = dwp_operator(2, 3, round_jet(0.9))
        assert op.bianchi_certified is True
        assert np.abs(op.mat - np.eye(op.N)).max() < 1e-12

    def test_jet_positivity_enforced(self):
        with pytest.raises(ValueError):
            WarpJet(r=0.0, phi=0.0, dphi=1.0, d2phi=0.0, psi=1.0, dpsi=0.0, d2psi=-1.0)

    @pytest.mark.parametrize("field", ["phi", "psi", "dphi", "d2psi", "r"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_jet_rejects_non_finite(self, field, value):
        fields = dict(r=0.8, phi=0.7, dphi=0.6, d2phi=-0.7, psi=0.7, dpsi=-0.6, d2psi=-0.7)
        fields[field] = value
        with pytest.raises(ValueError):
            WarpJet(**fields)

    def test_small_factors_rejected(self):
        with pytest.raises(ValueError):
            dwp_eigenvalues(1, 2, round_jet(0.5))


class TestPerturbedProfile:
    def test_zero_amplitude_is_round(self):
        prof = perturbed_profile(2, 2, 0.0, 0.8, 0.2)
        for r in (0.1, 0.8, 1.5):
            jet = prof(r)
            base = round_jet(r)
            assert jet.phi == base.phi
            assert jet.dphi == base.dphi
            assert jet.d2phi == base.d2phi
        assert prof.c1_bound == 0.0

    def test_bump_is_compactly_supported(self):
        prof = perturbed_profile(2, 2, 2.0, 0.8, 0.1)
        before = prof(0.5)
        assert before.d2phi == round_jet(0.5).d2phi
        inside = prof(0.8)
        assert inside.d2phi == pytest.approx(-math.sin(0.8) + 2.0)

    def test_c1_bound_holds_on_samples(self):
        prof = perturbed_profile(2, 2, 1.5, 0.7, 0.15)
        worst = 0.0
        for r in np.linspace(0.05, 1.5, 300):
            jet = prof(float(r))
            worst = max(worst, abs(jet.phi - math.sin(r)), abs(jet.dphi - math.cos(r)))
        assert worst <= prof.c1_bound

    def test_deep_dip_with_others_near_one(self):
        prof = perturbed_profile(2, 2, 2.0, 0.8, 0.01)
        rs = np.linspace(0.1, 1.2, 300)
        radial = [dwp_eigenvalues(2, 2, prof(float(r)))[0][0] for r in rs]
        assert min(radial) <= -1.0
        others = []
        for r in rs:
            fams = dwp_eigenvalues(2, 2, prof(float(r)))
            others.extend(v for v, _, _ in fams[1:])
        assert 0.9 <= min(others) and max(others) <= 1.1

    def test_positivity_transition(self):
        # 3-positive everywhere, 2-positivity broken somewhere
        prof = perturbed_profile(2, 2, 0.9, 0.8, 0.05)
        low2 = []
        low3 = []
        for r in np.linspace(0.02, math.pi / 2 - 0.02, 400):
            evs = dwp_eigenvalue_list(2, 2, prof(float(r)))
            low2.append(evs[:2].sum())
            low3.append(evs[:3].sum())
        assert min(low2) <= 0.0
        assert min(low3) > 0.0

    def test_support_must_stay_interior(self):
        with pytest.raises(ValueError):
            perturbed_profile(2, 2, 1.0, 0.05, 0.1)
        with pytest.raises(ValueError):
            perturbed_profile(2, 2, 1.0, 1.5, 0.2)

    @pytest.mark.parametrize(
        "p, q, amp, center, width",
        [
            (2, 2, math.nan, 0.8, 0.1),
            (2, 2, math.inf, 0.8, 0.1),
            (2, 2, 1.0, math.nan, 0.1),
            (2, 2, 1.0, 0.8, math.nan),
            (2, 2, 1.0, 0.8, math.inf),
            (1, 2, 1.0, 0.8, 0.1),
            (2, 1, 1.0, 0.8, 0.1),
        ],
    )
    def test_rejects_non_finite_and_small_factors(self, p, q, amp, center, width):
        with pytest.raises(ValueError):
            perturbed_profile(p, q, amp, center, width)

    def test_bump_integrals_match_quadrature(self):
        # independent oracle: trapezoid quadrature of the window
        from curvop.warped import _bump, _bump_i1, _bump_i2

        us = np.linspace(-1.2, 1.2, 1201)
        w = _bump(us)
        i1 = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) / 2.0) * (us[1] - us[0])])
        i1 += float(_bump_i1(us[0]))
        assert np.abs(_bump_i1(us) - i1).max() < 1e-6
        i2 = np.concatenate([[0.0], np.cumsum((i1[1:] + i1[:-1]) / 2.0) * (us[1] - us[0])])
        i2 += float(_bump_i2(us[0]))
        assert np.abs(_bump_i2(us) - i2).max() < 1e-6

    def test_profile_derivatives_consistent(self):
        # finite differences of phi reproduce dphi and d2phi
        prof = perturbed_profile(2, 2, 1.3, 0.8, 0.2)
        eps = 1e-5
        for r in (0.5, 0.8, 0.95, 1.2):
            plus, minus, mid = prof(r + eps), prof(r - eps), prof(r)
            dphi_fd = (plus.phi - minus.phi) / (2 * eps)
            d2phi_fd = (plus.phi - 2 * mid.phi + minus.phi) / eps ** 2
            assert dphi_fd == pytest.approx(mid.dphi, abs=1e-8)
            assert d2phi_fd == pytest.approx(mid.d2phi, abs=1e-4)


class TestScalSingleWarped:
    def test_round_sphere(self):
        for n in (3, 5, 8):
            r = 0.7
            got = scal_single_warped(n, math.sin(r), math.cos(r), -math.sin(r))
            assert got == pytest.approx(n * (n - 1), rel=1e-12)

    def test_cylinder(self):
        for n, c in ((4, 0.5), (6, 2.0)):
            got = scal_single_warped(n, c, 0.0, 0.0)
            assert got == pytest.approx((n - 2) * (n - 1) / c ** 2, rel=1e-12)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            scal_single_warped(4, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            scal_single_warped(4, math.nan, 1.0, 0.0)


class TestOde:
    def test_fixed_point_stays(self):
        for n in (4, 6):
            center = math.sqrt((n - 2) / 2.0)
            res = integrate_warp_ode(n, center, 0.0, 1e-3, 2.0)
            assert res.status == "ok"
            drift = max(max(abs(x - center), abs(y)) for x, y in zip(res.x, res.y))
            assert drift <= 1e-8

    def test_crossing_radius_grows(self):
        for n in (4, 5, 6, 7, 8):
            res = ode_shoot(n, math.sqrt((n - 2) / 4.0), step=1e-3, t_max=30.0)
            assert res.status == "crossed"
            _, x1 = res.crossing
            assert x1 * x1 > (n - 2) / 2.0

    def test_reference_crossing(self):
        res = ode_shoot(4, 0.5, step=1e-3, t_max=20.0)
        assert res.status == "crossed"
        assert res.crossing[1] > 1.0
        assert abs(res.y[-1]) <= 1e-10

    def test_scal_constant_along_trajectory(self):
        res = ode_shoot(5, 0.8, step=1e-3, t_max=20.0)
        scal = trajectory_scal(5, res.x, res.y)
        assert max(abs(s - 8.0) for s in scal) <= 1e-6

    def test_scal_matches_per_state_reference(self):
        # the same expressions in the same order, so every value is bit-identical
        for n, x0 in ((3, 0.3), (5, 0.8), (8, 0.5)):
            res = ode_shoot(n, x0, step=1e-3, t_max=20.0)
            got = trajectory_scal(n, res.x, res.y)
            assert all(type(v) is float for v in got)
            assert got == reference_trajectory_scal(n, res.x, res.y)
        assert trajectory_scal(4, (), ()) == []

    def test_scal_rejects_nonpositive_column(self):
        with pytest.raises(ValueError):
            trajectory_scal(4, (0.5, 0.0), (0.0, 0.0))

    @pytest.mark.parametrize("step", [1e-3, 1e-4])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_shoot_matches_reference_loop(self, n, step):
        limit = math.sqrt(0.5 * (n - 2))
        for x0 in (0.3 * limit, 0.6 * limit, 0.9 * limit):
            columns, crossing, status = reference_ode_shoot(n, x0, step, 20.0)
            res = ode_shoot(n, x0, step=step, t_max=20.0)
            assert res.status == status == "crossed"
            assert res.crossing == crossing
            assert (res.t, res.x, res.y) == columns

    @pytest.mark.parametrize(
        "n, x0, step, t_max, status",
        [
            (8, 0.01, 1e-2, 20.0, "blow-down"),
            (5, math.sqrt(1.5), 1e-3, 3.0, "no-crossing"),
            (4, 0.6, 1e-3, 0.5, "no-crossing"),
        ],
        ids=["blow-down", "center", "short-t-max"],
    )
    def test_shoot_without_crossing_matches_reference_loop(self, n, x0, step, t_max, status):
        columns, crossing, want = reference_ode_shoot(n, x0, step, t_max)
        res = ode_shoot(n, x0, step=step, t_max=t_max)
        assert res.status == want == status
        assert res.crossing is crossing is None
        assert (res.t, res.x, res.y) == columns

    @pytest.mark.parametrize(
        "n, x0, y0, status",
        [(4, 0.6, 0.0, "ok"), (7, 1.2, 0.3, "ok"), (4, 0.5, -10.0, "blow-down")],
    )
    def test_integrate_matches_reference_loop(self, n, x0, y0, status):
        for step in (1e-3, 1e-4):
            columns, want = reference_integrate_warp_ode(n, x0, y0, step, 2.0)
            res = integrate_warp_ode(n, x0, y0, step, 2.0)
            assert (res.t, res.x, res.y) == columns
            assert res.status == want == status
            assert res.crossing is None

    def test_center_start_reports_no_crossing(self):
        n = 5
        res = ode_shoot(n, math.sqrt((n - 2) / 2.0), step=1e-3, t_max=1.0)
        assert res.status == "no-crossing"
        assert res.crossing is None

    def test_time_reversal(self):
        fwd = integrate_warp_ode(4, 0.6, 0.0, 1e-3, 2.0)
        back = integrate_warp_ode(4, fwd.x[-1], -fwd.y[-1], 1e-3, 2.0)
        worst = max(
            max(abs(bx - fx), abs(by + fy))
            for bx, by, fx, fy in zip(back.x, back.y, reversed(fwd.x), reversed(fwd.y))
        )
        assert worst <= 1e-6

    def test_blow_down_detected(self):
        assert integrate_warp_ode(4, 0.5, -10.0, 1e-3, 2.0).status == "blow-down"

    def test_fourth_order_convergence(self):
        def radius(h):
            return ode_shoot(4, math.sqrt(0.5), step=h, t_max=30.0).crossing[1]

        coarse, mid, fine = radius(0.02), radius(0.01), radius(0.005)
        order = math.log2(abs(coarse - mid) / abs(mid - fine))
        assert order >= 3.8

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            ode_shoot(4, 1.5)
        with pytest.raises(ValueError):
            ode_shoot(4, -0.1)
        with pytest.raises(ValueError):
            ode_shoot(4, math.nan)
        with pytest.raises(ValueError):
            integrate_warp_ode(4, math.nan, 0.0, 1e-3, 1.0)
        with pytest.raises(ValueError):
            integrate_warp_ode(4, 0.5, math.inf, 1e-3, 1.0)

    def test_rhs_matches_scal_target(self):
        # the field is exactly the constant-scalar-curvature condition
        for n in (4, 6):
            x, y = 0.7, 0.3
            _, dy = ode_rhs(n, x, y)
            assert scal_single_warped(n, x, y, dy) == pytest.approx(2.0 * (n - 1), rel=1e-12)


@pytest.mark.parametrize("call", [round_jet, perturbed_profile(2, 2, 0.5, 0.8, 0.1)], ids=["round_jet", "profile"])
def test_non_finite_radii_are_refused(call):
    # sin(inf) raised "math domain error"
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^r must be finite, got "):
            call(r)
