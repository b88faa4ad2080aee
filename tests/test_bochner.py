"""Estimate constants, verdicts, bounds, and the exact term expansions."""

import math
import re

import numpy as np
import pytest

from curvop import (
    Spectrum,
    Tensor0k,
    TensorKind,
    WarpJet,
    betti_bound,
    betti_verdict,
    cp2_op,
    curvature_term,
    direct_term_check,
    estimate_constant,
    fourdim_einstein_term,
    hat_norm_sq,
    identity_operator,
    integrate_warp_ode,
    lemma21_verdict,
    negative_2form_term_op,
    negative_sym2_term_op,
    normal_h_term,
    ode_rhs,
    ode_shoot,
    perturbed_profile,
    round_jet,
    scal_single_warped,
    singer_thorpe_op,
    spectrum,
    sphere_product_op,
    tachibana_verdict,
    tensor_from_op,
    trajectory_scal,
    wedge_count,
)
from curvop.bochner import _weight_norms
from curvop.verify import random_normal_matrix, random_orthogonal, random_sym_operator


class TestEstimateConstant:
    def test_pform_values(self):
        assert estimate_constant(TensorKind.pform(1), 5) == 4.0
        assert estimate_constant(TensorKind.pform(2), 5) == 3.0
        # above the middle degree the complementary degree rules
        assert estimate_constant(TensorKind.pform(3), 4) == 3.0
        assert estimate_constant(TensorKind.pform(4), 5) == 4.0

    def test_sym2_and_curvature_values(self):
        assert estimate_constant(TensorKind.sym2(), 4) == 2.0
        assert estimate_constant(TensorKind.curvature_einstein(), 5) == 2.0
        assert estimate_constant(TensorKind.weyl(), 5) == 2.0
        assert estimate_constant(TensorKind.curvature_einstein(), 4) == 1.5

    def test_generic_from_highest_weight(self):
        # (n+k-2)/k from the highest weight k e_1; no caller ratio is taken
        assert estimate_constant(TensorKind.generic(1), 5) == 4.0
        assert estimate_constant(TensorKind.generic(2), 4) == 2.0
        assert estimate_constant(TensorKind.generic(3), 5) == 2.0
        with pytest.raises(TypeError):
            estimate_constant(TensorKind.generic(2), 4, hat_ratio=8.0)

    def test_highest_weights_give_the_closed_forms(self):
        # Cas(lam) / |lam|^2 equals each kind's closed form exactly
        cases = [(TensorKind.sym2(), n, n / 2) for n in range(2, 9)]
        cases += [(TensorKind.pform(p), n, float(max(p, n - p))) for n in range(2, 9) for p in range(1, n)]
        for kind in (TensorKind.weyl(), TensorKind.curvature_einstein()):
            cases += [(kind, n, (n - 1) / 2) for n in range(3, 9)]
        cases += [(TensorKind.generic(k), n, (n + k - 2) / k) for n in range(2, 9) for k in range(1, 13)]
        assert len(cases) == 131
        for kind, n, want in cases:
            assert estimate_constant(kind, n) == want, (kind, n)

    def test_lemma_2_2_factors_are_the_weight_norms(self):
        # |lam|^2: 4 for symmetric tensors, min(p, n-p) for p-forms, 8 for
        # the curvature kinds, k^2 for generic (0,k)-tensors
        assert _weight_norms(TensorKind.sym2(), 5)[1] == 4
        assert [_weight_norms(TensorKind.pform(p), 7)[1] for p in range(1, 7)] == [1, 2, 3, 3, 2, 1]
        assert _weight_norms(TensorKind.weyl(), 6)[1] == _weight_norms(TensorKind.curvature_einstein(), 4)[1] == 8
        assert [_weight_norms(TensorKind.generic(k), 3)[1] for k in (1, 2, 5)] == [1, 4, 25]

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            estimate_constant(TensorKind.pform(4), 4)

    @pytest.mark.parametrize("kind", [TensorKind.weyl(), TensorKind.curvature_einstein()], ids=["weyl", "einstein"])
    def test_curvature_kinds_need_dimension_three(self, kind):
        # (n-1)/2 = 0.5 at n = 2, below the C >= 1 every verdict takes
        with pytest.raises(ValueError, match=f"{kind.name} tensors need dimension at least 3, got 2"):
            estimate_constant(kind, 2)
        assert estimate_constant(kind, 3) == 1.0


class TestLemma21Verdict:
    def test_identity_spectrum(self):
        s = spectrum(identity_operator(4))
        v = lemma21_verdict(s, 3.0, 0.0)
        assert v.holds and v.vanishing
        assert v.lowest_sum == pytest.approx(3.0)
        assert v.floorC == 3

    def test_cp2_boundary(self):
        s = spectrum(cp2_op())
        v = lemma21_verdict(s, 2.0, 0.0)
        assert v.holds
        assert not v.vanishing
        assert v.lowest_sum == pytest.approx(0.0, abs=1e-12)

    def test_negative_term_spectrum(self):
        op, _ = negative_2form_term_op(5, 1.0)
        s = spectrum(op)
        v = lemma21_verdict(s, 3.0, 0.0)
        assert v.lowest_sum == pytest.approx(-2.0, abs=1e-12)
        assert not v.vanishing
        assert not v.holds

    def test_parameter_validation(self):
        s = spectrum(identity_operator(3))
        with pytest.raises(ValueError):
            lemma21_verdict(s, 0.5, 0.0)
        with pytest.raises(ValueError):
            lemma21_verdict(s, 2.0, 0.5)
        with pytest.raises(ValueError):
            lemma21_verdict(s, 4.0, 0.0)
        for c, kappa in ((math.nan, 0.0), (math.inf, 0.0), (2.0, math.nan), (2.0, -math.inf)):
            with pytest.raises(ValueError):
                lemma21_verdict(s, c, kappa)


class TestRealParameters:
    """The real parameters of the verdicts, the catalog and the warped
    profiles and integrators take one rule, tensors._real: a bool, a string
    or another non-number is refused by name, where float() read True as 1.0
    and "2" as 2.0, and a comparison raised TypeError; so is an integer past
    the float range, where float() raised OverflowError."""

    # (parameter name in the message, call taking the value, a value it accepts)
    SITES = {
        "lemma21_verdict-C": ("C", lambda v: lemma21_verdict(spectrum(cp2_op()), v, -1.0), 2),
        "lemma21_verdict-kappa": ("kappa", lambda v: lemma21_verdict(spectrum(cp2_op()), 2.0, v), -1),
        "direct_term_check": ("kappa", lambda v: direct_term_check(cp2_op(), Tensor0k(np.ones(4)), v), -1),
        "betti_bound-kappa": ("kappa", lambda v: betti_bound(4, 2, v, 1.0, 1.0), -1),
        "betti_bound-diameter": ("diameter", lambda v: betti_bound(4, 2, -1.0, v, 1.0), 1),
        "betti_bound-c": ("the constant", lambda v: betti_bound(4, 2, -1.0, 1.0, v), 1),
        "fourdim_einstein_term": ("eigenvalue", lambda v: fourdim_einstein_term([v] + [2.0] * 5), 2),
        "singer_thorpe_op": ("eigenvalue", lambda v: singer_thorpe_op([v] + [1.0] * 5), 1),
        "negative_2form_term_op": ("the scale", lambda v: negative_2form_term_op(4, v), 2),
        "negative_sym2_term_op-K": ("K", lambda v: negative_sym2_term_op(4, v, -1.0), 1),
        "negative_sym2_term_op-K1n": ("K1n", lambda v: negative_sym2_term_op(4, 1.0, v), -1),
        "round_jet": ("r", round_jet, 1),
        "profile-r": ("r", lambda v: perturbed_profile(2, 2, 0.5, 0.8, 0.1)(v), 1),
        "perturbed_profile-amp": ("amp", lambda v: perturbed_profile(2, 2, v, 0.8, 0.1), 1),
        "perturbed_profile-center": ("center", lambda v: perturbed_profile(2, 2, 0.5, v, 0.1), 1),
        "perturbed_profile-width": ("width", lambda v: perturbed_profile(2, 2, 0.5, 0.8, v), 0.25),
        "scal_single_warped-rho": ("rho", lambda v: scal_single_warped(4, v, 0.5, -1.0), 1),
        "scal_single_warped-drho": ("drho", lambda v: scal_single_warped(4, 0.5, v, -1.0), 1),
        "scal_single_warped-d2rho": ("d2rho", lambda v: scal_single_warped(4, 0.5, 0.5, v), 1),
        "integrate_warp_ode-x0": ("x0", lambda v: integrate_warp_ode(4, v, 0.0, 0.5, 1.0), 1),
        "integrate_warp_ode-y0": ("y0", lambda v: integrate_warp_ode(4, 1.0, v, 0.5, 1.0), 0),
        "integrate_warp_ode-step": ("step", lambda v: integrate_warp_ode(4, 1.0, 0.0, v, 2.0), 1),
        "integrate_warp_ode-t_max": ("t_max", lambda v: integrate_warp_ode(4, 1.0, 0.0, 0.5, v), 1),
        "ode_shoot-x0": ("x0", lambda v: ode_shoot(4, v, step=0.5, t_max=1.0), 1),
        "ode_shoot-step": ("step", lambda v: ode_shoot(4, 0.5, step=v, t_max=2.0), 1),
        "ode_shoot-t_max": ("t_max", lambda v: ode_shoot(4, 0.5, step=0.5, t_max=v), 1),
        "WarpJet": ("r", lambda v: WarpJet(r=v, phi=0.5, dphi=0.5, d2phi=0.0, psi=0.5, dpsi=0.0, d2psi=0.0), 1),
        "ode_rhs": ("x", lambda v: ode_rhs(4, v, 0.0), 1),
        "trajectory_scal": ("x", lambda v: trajectory_scal(4, (v,), (0.0,)), 1),
    }

    @pytest.mark.parametrize("value", [True, False, "2", None], ids=["True", "False", "str", "None"])
    @pytest.mark.parametrize("site", SITES)
    def test_non_numbers_are_refused_by_name(self, site, value):
        what, call, _ = self.SITES[site]
        with pytest.raises(ValueError, match=f"^{what} must be a real number, got {re.escape(repr(value))}$"):
            call(value)

    @pytest.mark.parametrize("site", SITES)
    def test_numpy_numbers_pass(self, site):
        _, call, good = self.SITES[site]
        call(np.array(good)[()])  # np.int64 for an int
        call(np.float64(good))

    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["positive", "negative"])
    @pytest.mark.parametrize("site", SITES)
    def test_integers_past_the_float_range_are_refused(self, site, value):
        what, call, _ = self.SITES[site]
        with pytest.raises(ValueError, match=f"^{what} must be finite, got an integer past the float range$"):
            call(value)

    def test_non_finite_kappa_and_eigenvalues_are_refused(self):
        for kappa in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^kappa must be finite, got "):
                direct_term_check(cp2_op(), Tensor0k(np.ones(4)), kappa)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^eigenvalues must be finite$"):
                fourdim_einstein_term([bad] * 6)

    def test_direct_term_check_keeps_a_positive_kappa(self):
        _, rhs, ok = direct_term_check(identity_operator(4), Tensor0k(np.ones(4)), 1.0)
        assert ok and rhs == hat_norm_sq(Tensor0k(np.ones(4)))


class TestDirectTermCheck:
    def test_identity_nonnegative(self):
        rng = np.random.default_rng(0)
        from curvop import PForm

        w = PForm(4, 2, rng.normal(size=6))
        lhs, rhs, ok = direct_term_check(identity_operator(4), w, 0.0)
        assert ok
        assert lhs == pytest.approx(hat_norm_sq(w), rel=1e-12)
        assert rhs == 0.0

    def test_negative_term_fails_at_zero(self):
        op, w = negative_2form_term_op(4, 1.0)
        lhs, rhs, ok = direct_term_check(op, w, 0.0)
        assert lhs == pytest.approx(-8.0, rel=1e-12)
        assert not ok

    def test_matches_public_term_and_hat_norm_bitwise(self):
        # one set of hat rows feeds both sides
        from curvop import PForm, Sym2

        rng = np.random.default_rng(7)
        for n in (3, 4, 5, 6):
            r = random_sym_operator(rng, n)
            a = rng.normal(size=(n, n))
            kinds = [Tensor0k(rng.normal(size=(n,) * 3)), Sym2((a + a.T) / 2)]
            kinds += [PForm(n, 2, rng.normal(size=math.comb(n, 2))), tensor_from_op(r)]
            for t in kinds:
                kappa = -abs(float(rng.normal()))
                lhs, rhs, _ = direct_term_check(r, t, kappa)
                assert np.float64(lhs).tobytes() == np.float64(curvature_term(r, t, t)).tobytes()
                assert np.float64(rhs).tobytes() == np.float64(kappa * hat_norm_sq(t)).tobytes()
        with pytest.raises(ValueError):
            direct_term_check(identity_operator(4), Tensor0k(np.zeros((3, 3))), 0.0)


class TestBettiVerdict:
    def test_identity_vanishes(self):
        s = spectrum(identity_operator(5))
        for p in (1, 2):
            v = betti_verdict(s, 5, p)
            assert v.vanishing and v.parallel_only

    def test_cp2_middle_degree(self):
        s = spectrum(cp2_op())
        v = betti_verdict(s, 4, 2)
        assert not v.vanishing
        assert v.parallel_only

    def test_sphere_product_degree_one(self):
        s = spectrum(sphere_product_op(2, 4))
        v = betti_verdict(s, 4, 1)
        assert not v.vanishing
        assert v.parallel_only

    def test_scaling_invariance(self):
        rng = np.random.default_rng(1)
        r = random_sym_operator(rng, 5)
        s = spectrum(r)
        from curvop import CurvatureOperator

        for c in (0.5, 3.0, 17.0):
            s2 = spectrum(CurvatureOperator(5, c * r.mat))
            for p in (1, 2):
                a = betti_verdict(s, 5, p)
                b = betti_verdict(s2, 5, p)
                assert (a.vanishing, a.parallel_only) == (b.vanishing, b.parallel_only)

    def test_rejects_large_p(self):
        s = spectrum(identity_operator(4))
        with pytest.raises(ValueError):
            betti_verdict(s, 4, 3)

    def test_rejects_a_spectrum_of_another_dimension(self):
        # cp2's spectrum has 6 eigenvalues, an operator in dimension 5 has 10
        with pytest.raises(ValueError, match="a spectrum in dimension 5 has 10 eigenvalues, got 6"):
            betti_verdict(spectrum(cp2_op()), 5, 1)


class TestBettiBound:
    def test_zero_kappa_gives_binomial(self):
        assert betti_bound(6, 2, 0.0, 1.0, 1.0) == 15.0

    def test_reference_value(self):
        # binom(4,2) exp(sqrt(1*1*2*2)) = 6 e^2
        assert betti_bound(4, 2, -1.0, 1.0, 1.0) == pytest.approx(6.0 * math.exp(2.0), rel=1e-13)

    def test_monotone_in_curvature(self):
        values = [betti_bound(5, 2, kappa, 1.0, 1.0) for kappa in (0.0, -0.5, -1.0, -2.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            betti_bound(5, 2, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            betti_bound(5, 2, -1.0, 0.0, 1.0)
        for kappa, diameter, c in (
            (math.nan, 1.0, 1.0), (-math.inf, 1.0, 1.0), (-1.0, math.nan, 1.0),
            (-1.0, math.inf, 1.0), (-1.0, 1.0, math.nan), (-1.0, 1.0, math.inf),
            (-1.0, 1.0, 1e300), (-1.0, 1.0, 289.25),
        ):
            with pytest.raises(ValueError):
                betti_bound(5, 2, kappa, diameter, c)


class TestTachibana:
    def test_identity_dimension_five(self):
        s = spectrum(identity_operator(5))
        v = tachibana_verdict(s, 5)
        assert v.parallel and v.constant_curvature

    def test_remark_operator(self):
        op = singer_thorpe_op((-1.0, -1.0, 8.0, 2.0, 2.0, 2.0))
        v = tachibana_verdict(spectrum(op), 4)
        assert not v.parallel and not v.constant_curvature

    def test_cp2(self):
        v = tachibana_verdict(spectrum(cp2_op()), 4)
        assert v.parallel
        assert not v.constant_curvature

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            tachibana_verdict(spectrum(identity_operator(3)), 3)

    def test_rejects_a_spectrum_of_another_dimension(self):
        with pytest.raises(ValueError, match="a spectrum in dimension 8 has 28 eigenvalues, got 6"):
            tachibana_verdict(spectrum(cp2_op()), 8)

    @staticmethod
    def designed(n, lowest):
        """A spectrum on Lambda^2 R^n whose lowest eigenvalues are lowest and
        whose others repeat the last of them; dyadic values keep every
        lowest-k sum exact."""
        size = wedge_count(n)
        return Spectrum(lowest + [lowest[-1]] * (size - len(lowest)), np.eye(size))

    @pytest.mark.parametrize("n", range(5, 9))
    def test_counts_no_more_than_floor_half_n_minus_one(self, n):
        # the lowest floor((n-1)/2) sum is negative and one more eigenvalue
        # makes it positive, so a count one too large reads a nonnegative sum
        count = (n - 1) // 2
        s = self.designed(n, [-0.5] * count + [0.5 * count + 0.25])
        assert s.lowest_sum(count) < 0.0 < s.lowest_sum((n + 1) // 2)
        v = tachibana_verdict(s, n)
        assert not v.parallel and not v.constant_curvature

    @pytest.mark.parametrize("margin", [0.0, 0.25])
    @pytest.mark.parametrize("n", range(5, 9))
    def test_counts_no_fewer_than_floor_half_n_minus_one(self, n, margin):
        # one eigenvalue fewer than floor((n-1)/2) sums to a negative, so a
        # count one too small reads a negative sum; at margin 0 the sum is
        # exactly zero, which forces parallel but not constant curvature
        count = (n - 1) // 2
        s = self.designed(n, [-0.5] * (count - 1) + [0.5 * (count - 1) + margin])
        assert s.lowest_sum((n - 3) // 2) < 0.0 <= s.lowest_sum(count) == margin
        v = tachibana_verdict(s, n)
        assert v.parallel and v.constant_curvature == (margin > 0.0)


class TestFourdimEinsteinTerm:
    def test_equal_eigenvalues_flat(self):
        assert fourdim_einstein_term((2.0,) * 6) == 0.0

    def test_remark_value(self):
        assert fourdim_einstein_term((-1, -1, 8, 2, 2, 2)) == -2592.0

    def test_cp2_zero(self):
        assert fourdim_einstein_term((0, 0, 6, 2, 2, 2)) == 0.0

    def test_matches_curvature_term(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            lams = rng.normal(size=6)
            lams[5] = lams[0] + lams[1] + lams[2] - lams[3] - lams[4]
            op = singer_thorpe_op(lams)
            rm = tensor_from_op(op)
            got = curvature_term(op, rm, rm)
            assert fourdim_einstein_term(lams) == pytest.approx(got, rel=1e-9, abs=1e-9)

    def test_needs_six(self):
        with pytest.raises(ValueError):
            fourdim_einstein_term((1.0, 2.0))


class TestNormalHTerm:
    def test_metric_gives_zero(self):
        op, _ = negative_sym2_term_op(5, 1.0, -1.0)
        assert normal_h_term(op, np.eye(5)) == pytest.approx(0.0, abs=1e-12)

    def test_balanced_case(self):
        op, h = negative_sym2_term_op(4, 1.0, -1.0)
        assert normal_h_term(op, h.mat) == pytest.approx(0.0, abs=1e-12)

    def test_negative_case(self):
        op, h = negative_sym2_term_op(6, 1.0, -3.0)
        assert normal_h_term(op, h.mat) == pytest.approx(-8.0, rel=1e-12)

    def test_skew_block_matches_real_side(self):
        h = np.zeros((3, 3))
        h[1, 0] = 1.0
        h[0, 1] = -1.0
        ident = identity_operator(3)
        tensor = Tensor0k(h)
        assert normal_h_term(ident, h) == pytest.approx(
            curvature_term(ident, tensor, tensor), rel=1e-12
        )
        assert normal_h_term(ident, h) == pytest.approx(hat_norm_sq(tensor), rel=1e-12)

    def test_random_normal_matches_real_side(self):
        rng = np.random.default_rng(3)
        for n in (3, 4, 5, 6):
            r = random_sym_operator(rng, n)
            h = random_normal_matrix(rng, n)
            tensor = Tensor0k(h)
            assert normal_h_term(r, h) == pytest.approx(
                curvature_term(r, tensor, tensor), rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize(
        "blocks",
        [
            [(0.7, 1.3), (0.7, 1.3)],
            [(0.7, 1.3), (0.7, 1.3), (-0.4, 0.9)],
            [(0.5,), (0.5,), (-1.1, 2.0)],
            [(0.0, 1.5), (0.0, 1.5), (0.0,)],
        ],
        ids=["equal-blocks-r4", "equal-blocks-r6", "real-pair-and-complex-pair", "skew"],
    )
    def test_repeated_eigenvalues_match_real_side(self, blocks):
        # inside a repeated eigenvalue the weight |h_i - conj(h_j)|^2 is not
        # zero, so the term needs the basis orthonormal within the cluster
        n = sum(len(b) for b in blocks)
        canon = np.zeros((n, n))
        i = 0
        for block in blocks:
            canon[i, i] = block[0]
            if len(block) == 2:
                canon[i + 1, i + 1] = block[0]
                canon[i + 1, i] = block[1]
                canon[i, i + 1] = -block[1]
            i += len(block)
        rng = np.random.default_rng(n)
        q = random_orthogonal(rng, n)
        h = q @ canon @ q.T
        r = random_sym_operator(rng, n)
        tensor = Tensor0k(h)
        assert normal_h_term(r, h) == pytest.approx(curvature_term(r, tensor, tensor), rel=1e-12)

    def test_uncertified_eigenbasis_raises(self):
        # [[1, e], [0, 1]] passes the normality check, its commutator being
        # e^2, but has a single eigenvector, so no unitary basis fits it
        h = np.array([[1.0, 1e-6], [0.0, 1.0]])
        with pytest.raises(ValueError, match="eigenbasis"):
            normal_h_term(identity_operator(2), h)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite(self, entry):
        h = np.array([[1.0, 0.0], [0.0, entry]])
        with pytest.raises(ValueError, match="finite"):
            normal_h_term(identity_operator(2), h)

    @pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
    def test_normality_threshold(self, factor, accepted):
        # [[1, e], [0, 2]] has commutator entries e and e^2; normal to 1e-10
        # times max(1, largest entry squared), here 4, is normal enough
        h = np.array([[1.0, factor * 1e-10 * 4.0], [0.0, 2.0]])
        if accepted:
            assert normal_h_term(identity_operator(2), h) == pytest.approx(2.0, rel=1e-9)
        else:
            with pytest.raises(ValueError, match="not normal"):
                normal_h_term(identity_operator(2), h)

    def test_rejects_non_normal(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            normal_h_term(identity_operator(2), bad)
