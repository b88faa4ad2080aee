"""The example catalog: every advertised value re-derived from scratch."""

import math
from fractions import Fraction

import numpy as np
import pytest

from curvop import (
    CurvatureOperator,
    Sym2,
    act_on_operator,
    action,
    ad_matrix,
    alternation,
    cp2_op,
    curvature_term,
    decompose,
    extremal_pform,
    hat_norm_sq,
    negative_2form_term_op,
    negative_sym2_term_op,
    normal_h_term,
    product_of_spheres_op,
    singer_thorpe_basis,
    singer_thorpe_op,
    so_act,
    spectrum,
    sphere_product_op,
    tensor_from_op,
    wedge_element,
    wedge_index,
    wedge_pairs,
)
from curvop.tensors import increasing_tuples


def bianchi_residual_by_alternation(op):
    return float(np.abs(alternation(tensor_from_op(op).array)).max())


class TestSphereProducts:
    def test_block_structure(self):
        op = sphere_product_op(2, 4)
        diag = np.diag(op.mat)
        assert diag[wedge_index(4, 0, 1)] == 1.0
        assert diag.sum() == 1.0

    def test_hat_norm_formula(self):
        for n in range(2, 9):
            for p in range(2, n + 1):
                op = sphere_product_op(p, n)
                assert hat_norm_sq(op) == pytest.approx(2.0 * (p - 1) * p * (n - p), abs=1e-12)
                assert bianchi_residual_by_alternation(op) < 1e-13

    def test_round_sphere_spectrum(self):
        s = spectrum(sphere_product_op(4, 4))
        assert np.array_equal(s.eigenvalues, np.ones(6))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            sphere_product_op(1, 4)
        with pytest.raises(ValueError):
            sphere_product_op(5, 4)


class TestProductsOfSpheres:
    def test_hat_norm_formula(self):
        for n in range(2, 9):
            for k in range(1, n // 2 + 1):
                op = product_of_spheres_op(k, n)
                assert hat_norm_sq(op) == pytest.approx(4.0 * k * (n - 2), abs=1e-12)
                assert bianchi_residual_by_alternation(op) < 1e-13

    def test_agreement_with_sphere_product(self):
        assert np.array_equal(product_of_spheres_op(1, 4).mat, sphere_product_op(2, 4).mat)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            product_of_spheres_op(3, 5)
        with pytest.raises(ValueError):
            product_of_spheres_op(0, 4)


class TestSingerThorpe:
    def test_orthonormal_and_dual_split(self):
        basis = singer_thorpe_basis()
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert float(a.comps @ b.comps) == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)

    def test_multiplication_table(self):
        basis = singer_thorpe_basis()
        root2 = math.sqrt(2.0)
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                out = ad_matrix(basis[i]) @ basis[j].comps
                if (i < 3) != (j < 3):
                    assert np.abs(out).max() == 0.0
                    continue
                k = ({0, 1, 2} if i < 3 else {3, 4, 5}).difference({i, j}).pop()
                coeff = float(out @ basis[k].comps)
                assert abs(coeff) == pytest.approx(root2, abs=1e-15)
                assert np.abs(out - coeff * basis[k].comps).max() < 1e-15

    def test_bianchi_iff_triple_sums(self):
        op = singer_thorpe_op((1.0, 2.0, 3.0, 0.0, 2.0, 4.0))
        assert op.bianchi_certified is True
        op2 = singer_thorpe_op((1.0, 2.0, 3.0, 0.0, 2.0, 3.0))
        assert op2.bianchi_certified is False

    def test_identity_eigenvalues(self):
        op = singer_thorpe_op((1.0,) * 6)
        assert np.allclose(op.mat, np.eye(6), atol=1e-15)

    def test_sharp_curvature_pair(self):
        op = singer_thorpe_op((-1.0, 1.0, 3.0, 1.0, 1.0, 1.0))
        basis = singer_thorpe_basis()
        r0_sq = op.traceless().norm_sq()
        assert r0_sq == pytest.approx(8.0, abs=1e-12)
        norms = [act_on_operator(basis[i], op).norm_sq() for i in range(6)]
        assert norms[1] == pytest.approx(8.0 * r0_sq, abs=1e-12)
        assert norms[0] == pytest.approx(2.0 * r0_sq, abs=1e-12)
        assert norms[2] == pytest.approx(2.0 * r0_sq, abs=1e-12)
        assert max(norms[3:]) < 1e-15


class TestCp2:
    def test_spectrum(self):
        assert np.allclose(spectrum(cp2_op()).eigenvalues, [0, 0, 2, 2, 2, 6], atol=1e-12)

    def test_einstein(self):
        dec = decompose(cp2_op())
        assert dec.ric0.norm_sq() < 1e-20

    def test_maximal_action_norms(self):
        # equality in the split-basis bound 4 (max - min)^2 |L|^2
        op = cp2_op()
        basis = singer_thorpe_basis()
        for i in (0, 1):
            assert act_on_operator(basis[i], op).norm_sq() == pytest.approx(144.0, abs=1e-12)
        for i in (2, 3, 4, 5):
            assert act_on_operator(basis[i], op).norm_sq() == pytest.approx(0.0, abs=1e-15)


class TestNegativeTwoFormTerm:
    def test_eigenvalues_by_dimension(self):
        op4, _ = negative_2form_term_op(4, 1.0)
        assert np.allclose(spectrum(op4).eigenvalues, [-1, -1, 2, 2, 2, 8], atol=1e-12)
        op5, _ = negative_2form_term_op(5, 1.0)
        want = sorted([-2.0, -2.0, 10.0] + [2.0] * 7)
        assert np.allclose(spectrum(op5).eigenvalues, want, atol=1e-12)

    def test_term_value_scales(self):
        for n in (4, 5, 6):
            for lam in (1.0, 0.5, 3.0):
                op, w = negative_2form_term_op(n, lam)
                assert curvature_term(op, w, w) == pytest.approx(
                    -4.0 * lam * w.norm_sq(), rel=1e-12
                )
                assert w.norm_sq() == 2.0

    def test_nonnegative_low_sums(self):
        for n in (4, 5, 6, 7):
            op, _ = negative_2form_term_op(n, 1.0)
            s = spectrum(op)
            assert s.lowest_sum(n - 1) == pytest.approx(0.0, abs=1e-11)

    def test_bianchi_by_alternation(self):
        for n in (4, 6):
            op, _ = negative_2form_term_op(n, 1.0)
            assert bianchi_residual_by_alternation(op) < 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            negative_2form_term_op(3, 1.0)
        for lam in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                negative_2form_term_op(5, lam)

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_rejects_scales_whose_largest_entry_overflows(self, n):
        # the largest eigenvalue is 2n lam; a scale that puts it at 2**1023
        # or above is named in the error, before any product overflows
        bound = 2.0 ** 1023 / (2 * n)
        for lam in (1e308, 1.000001 * bound):
            with pytest.raises(ValueError, match=r"scale must keep 2n\*lam below 2\*\*1023"):
                negative_2form_term_op(n, lam)
        lam = 0.999999 * bound
        op, w = negative_2form_term_op(n, lam)
        assert spectrum(op).eigenvalues[-1] == pytest.approx(2.0 * n * lam, rel=1e-12)
        assert curvature_term(op, w, w) == pytest.approx(-4.0 * lam * w.norm_sq(), rel=1e-12)


def split_vectors(n):
    """The integer split vectors on R^n, written out plane by plane:
    L = e01 + e23, Re w = e02 - e13 and Im w = e03 + e12 for
    w = (e^0 + i e^1)^(e^2 + i e^3), then on R^4 their mirror images under
    e_3 -> -e_3, the third one negated."""
    planes = [{(0, 1): 1, (2, 3): 1}, {(0, 2): 1, (1, 3): -1}, {(0, 3): 1, (1, 2): 1}]
    if n == 4:
        planes += [{(0, 1): 1, (2, 3): -1}, {(0, 2): 1, (1, 3): 1}, {(0, 3): 1, (1, 2): -1}]
    u = [[0] * len(wedge_pairs(n)) for _ in planes]
    for row, plane in zip(u, planes):
        for (i, j), sign in plane.items():
            row[wedge_index(n, i, j)] = sign
    return u


def exact_split_sum(n, weights, diagonal=0):
    """diagonal I + (1/2) sum_a weights[a] u_a u_a^T in Fractions."""
    u = split_vectors(n)
    size = len(u[0])
    return [[diagonal * (i == j) + sum(Fraction(w) * a[i] * a[j] for w, a in zip(weights, u)) / 2
             for j in range(size)] for i in range(size)]


def assert_exact(mat, want):
    assert [[Fraction(float(x)) for x in row] for row in mat] == want


class TestExactSplitWriters:
    """The split-basis operators are dyadic: no entry is rounded."""

    def test_basis_bits(self):
        basis = np.array([xi.comps for xi in singer_thorpe_basis()])
        want = np.array(split_vectors(4), dtype=float) / math.sqrt(2.0)
        assert basis.tobytes() == want.tobytes()
        assert not np.signbit(basis[basis == 0.0]).any()

    def test_cp2(self):
        assert_exact(cp2_op().mat, exact_split_sum(4, (0, 0, 6, 2, 2, 2)))

    @pytest.mark.parametrize("lams", [(0, 0, 6, 2, 2, 2), (1, 2, 3, 3, 2, 1), (1, 2, 3, 4, 5, 6),
                                      (-1, -1, 8, 2, 2, 2), (-7, 0, 3, -2, 5, 11)])
    def test_singer_thorpe_integer_sextuples(self, lams):
        op = singer_thorpe_op(lams)
        assert_exact(op.mat, exact_split_sum(4, lams))

    @pytest.mark.parametrize("n", range(4, 9))
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
    def test_negative_2form_term(self, n, lam):
        op, form = negative_2form_term_op(n, lam)
        lam_q = Fraction(lam)
        weights = [w - 2 * lam_q for w in (-(n - 3) * lam_q, -(n - 3) * lam_q, 2 * n * lam_q)]
        assert_exact(op.mat, exact_split_sum(n, weights, 2 * lam_q))
        # the term is -4 lam |Im w|^2 bit for bit
        assert curvature_term(op, form, form) == -4.0 * lam * form.norm_sq()


class TestExtremalPForms:
    def test_degree_one(self):
        w1, w2, lam = extremal_pform(1)
        assert np.array_equal(so_act(lam, w1).comps, -w2.comps)
        assert np.array_equal(so_act(lam, w2).comps, w1.comps)

    def test_degree_three_display(self):
        w1, w2, _ = extremal_pform(3)
        tuples = increasing_tuples(6, 3)
        got1 = {t: c for t, c in zip(tuples, w1.comps) if c != 0}
        assert got1 == {
            (0, 2, 4): 1.0,
            (0, 3, 5): -1.0,
            (1, 2, 5): -1.0,
            (1, 3, 4): -1.0,
        }
        got2 = {t: c for t, c in zip(tuples, w2.comps) if c != 0}
        assert got2 == {
            (0, 2, 5): -1.0,
            (0, 3, 4): -1.0,
            (1, 2, 4): -1.0,
            (1, 3, 5): 1.0,
        }

    def test_built_without_the_action(self, monkeypatch):
        # the pair is written in closed form, so the action it is checked
        # against plays no part in building it
        def refused(*args):
            raise AssertionError("extremal_pform called the action")

        monkeypatch.setattr(action, "_act", refused)
        monkeypatch.setattr(action, "_block_rows", refused)
        for p in (1, 2, 3, 4):
            w1, w2, lam = extremal_pform(p)
            assert np.count_nonzero(w1.comps) + np.count_nonzero(w2.comps) == 2 ** p
            assert lam.norm_sq() == p

    def test_rotation_identities_and_sharpness(self):
        for p in (1, 2, 3, 4):
            w1, w2, lam = extremal_pform(p)
            n = 2 * p
            assert np.array_equal(so_act(lam, w1).comps, -p * w2.comps)
            assert np.array_equal(so_act(lam, w2).comps, p * w1.comps)
            lhs = so_act(lam, w1).norm_sq()
            assert lhs == pytest.approx(min(p, n - p) * w1.norm_sq() * lam.norm_sq(), abs=1e-12)
            combined = np.count_nonzero(w1.comps) + np.count_nonzero(w2.comps)
            assert combined == 2 ** p


class TestSmallExtremals:
    """The sharp symmetric-tensor and 2-form pairs on R^4."""

    def test_equalities(self):
        h, lam = Sym2(np.diag([1.0, -1.0, 0.0, 0.0])), wedge_element(4, 0, 1)
        assert so_act(lam, h).norm_sq() == pytest.approx(4.0 * h.norm_sq() * lam.norm_sq())
        assert so_act(lam, h).norm_sq() == pytest.approx(8.0)
        w, _, lam2 = extremal_pform(2)
        assert so_act(lam2, w).norm_sq() == pytest.approx(8.0)
        assert w.norm_sq() == 2.0
        assert lam2.norm_sq() == 2.0

    def test_bilinear_scaling(self):
        h3 = Sym2(np.diag([3.0, -3.0, 0.0, 0.0]))
        assert so_act(wedge_element(4, 0, 1), h3).norm_sq() == pytest.approx(9.0 * 8.0)


class TestNegativeSym2Term:
    def test_flat_and_negative_values(self):
        op, h = negative_sym2_term_op(4, 1.0, -1.0)
        assert normal_h_term(op, h.mat) == pytest.approx(0.0, abs=1e-12)
        op6, h6 = negative_sym2_term_op(6, 1.0, -3.0)
        assert normal_h_term(op6, h6.mat) == pytest.approx(-8.0, rel=1e-12)

    def test_interior_entries_carry_no_weight(self):
        n = 5
        op, h = negative_sym2_term_op(n, 1.0, -2.0)
        base = normal_h_term(op, h.mat)
        # perturb the interior-interior sectional curvatures arbitrarily
        diag = np.diag(op.mat).copy()
        for which, (i, j) in enumerate(wedge_pairs(n)):
            if 0 < i and j < n - 1:
                diag[which] = 7.5
        other = CurvatureOperator(n, np.diag(diag))
        assert normal_h_term(other, h.mat) == pytest.approx(base, rel=1e-12)

    def test_bianchi_automatic_for_decomposable(self):
        op, _ = negative_sym2_term_op(5, 2.0, -0.5)
        assert op.bianchi_certified is True
        assert bianchi_residual_by_alternation(op) < 1e-12

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            negative_sym2_term_op(4, -1.0, -1.0)
        with pytest.raises(ValueError):
            negative_sym2_term_op(4, 1.0, 1.0)
        for bad in ((math.nan, -1.0), (math.inf, -1.0), (1.0, math.nan), (1.0, -math.inf)):
            with pytest.raises(ValueError):
                negative_sym2_term_op(4, *bad)
