"""Estimate constants, verdicts, bounds, and the exact term expansions."""

import math

import numpy as np
import pytest

from curvop import (
    TensorKind,
    betti_bound,
    betti_verdict,
    cp2_op,
    curvature_term,
    direct_term_check,
    estimate_constant,
    fourdim_einstein_term,
    hat_norm_sq,
    identity_operator,
    lemma21_verdict,
    negative_2form_term_op,
    negative_sym2_term_op,
    normal_h_term,
    singer_thorpe_op,
    spectrum,
    sphere_product_op,
    tachibana_verdict,
    tensor_from_op,
)
from curvop.bochner import normal_h_tensor
from curvop.verify import random_normal_matrix, random_sym_operator


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

    def test_generic_needs_ratio(self):
        assert estimate_constant(TensorKind.generic(2), 4, hat_ratio=8.0) == 2.0
        with pytest.raises(ValueError):
            estimate_constant(TensorKind.generic(2), 4)

    def test_plain_curvature_rejected(self):
        with pytest.raises(ValueError):
            estimate_constant(TensorKind.curvature(), 5)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            estimate_constant(TensorKind.pform(4), 4)


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
        from curvop import PForm, Sym2, Tensor0k

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


class TestTachibana:
    def test_identity_dimension_five(self):
        s = spectrum(identity_operator(5))
        v = tachibana_verdict(s, 5)
        assert v.parallel and v.constant_curvature

    def test_remark_operator(self):
        op, _ = singer_thorpe_op((-1.0, -1.0, 8.0, 2.0, 2.0, 2.0))
        v = tachibana_verdict(spectrum(op), 4)
        assert not v.parallel and not v.constant_curvature

    def test_cp2(self):
        v = tachibana_verdict(spectrum(cp2_op()), 4)
        assert v.parallel
        assert not v.constant_curvature

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            tachibana_verdict(spectrum(identity_operator(3)), 3)


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
            op, _ = singer_thorpe_op(lams)
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
        tensor = normal_h_tensor(h)
        assert normal_h_term(ident, h) == pytest.approx(
            curvature_term(ident, tensor, tensor), rel=1e-12
        )
        assert normal_h_term(ident, h) == pytest.approx(hat_norm_sq(tensor), rel=1e-12)

    def test_random_normal_matches_real_side(self):
        rng = np.random.default_rng(3)
        for n in (3, 4, 5, 6):
            r = random_sym_operator(rng, n)
            h = random_normal_matrix(rng, n)
            tensor = normal_h_tensor(h)
            assert normal_h_term(r, h) == pytest.approx(
                curvature_term(r, tensor, tensor), rel=1e-9, abs=1e-9
            )

    def test_rejects_non_normal(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            normal_h_term(identity_operator(2), bad)
