"""The so(n) action, hat tensors, curvature terms, and Ricci curvature."""

import math

import numpy as np
import pytest

from curvop import (
    CurvTensor,
    CurvatureOperator,
    PForm,
    SoElement,
    Sym2,
    Tensor0k,
    act_on_operator,
    curvature_term,
    hat,
    hat_norm_sq,
    identity_operator,
    identity_sym2,
    inner,
    kulkarni_nomizu,
    cp2_op,
    negative_2form_term_op,
    op_from_tensor,
    product_of_spheres_op,
    ric_identity_closed_form,
    ric_of,
    so_act,
    sphere_product_op,
    tensor_from_op,
    wedge_basis_form,
    wedge_count,
    wedge_element,
    wedge_index,
    wedge_pairs,
)
from curvop.action import _wedge_table
from curvop.tensors import increasing_tuples
from curvop.verify import hat_wedge_closed_form, random_bianchi_operator, random_sym_operator


def rand_so(rng, n):
    return SoElement(n, rng.normal(size=wedge_count(n)))


def rand_sym2(rng, n):
    a = rng.normal(size=(n, n))
    return Sym2((a + a.T) / 2)


class TestSoElement:
    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(1)
        lam = rand_so(rng, 5)
        back = SoElement.from_matrix(lam.matrix())
        assert np.allclose(back.comps, lam.comps, atol=1e-14)

    def test_sphere_convention(self):
        # (x^y)z = g(x,z)y - g(y,z)x
        lam = wedge_element(4, 0, 1)
        m = lam.matrix()
        e = np.eye(4)
        assert np.array_equal(m @ e[:, 0], e[:, 1])
        assert np.array_equal(m @ e[:, 1], -e[:, 0])

    def test_wedge_order_sign(self):
        assert np.array_equal(
            wedge_element(3, 1, 0).comps, -wedge_element(3, 0, 1).comps
        )
        with pytest.raises(ValueError):
            wedge_element(3, 1, 1)

    def test_inner_product_matches_half_trace(self):
        rng = np.random.default_rng(2)
        a, b = rand_so(rng, 4), rand_so(rng, 4)
        want = 0.5 * np.trace(a.matrix().T @ b.matrix())
        assert float(a.comps @ b.comps) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
    def test_from_matrix_skew_threshold(self, factor, accepted):
        # skew to 1e-9 times max(1, largest entry), here 2, is skew enough
        m = np.array([[0.0, -2.0], [2.0, 0.0]])
        m[0, 1] += factor * 1e-9 * 2.0
        if accepted:
            assert SoElement.from_matrix(m).comps.tolist() == pytest.approx([2.0], abs=1e-8)
        else:
            with pytest.raises(ValueError, match="not skew-symmetric"):
                SoElement.from_matrix(m)

    @pytest.mark.filterwarnings("error")
    def test_from_matrix_near_the_float_maximum(self):
        # entries of magnitude near the largest float are skew without
        # overflowing the skewness test or the coordinates
        m = np.zeros((3, 3))
        m[1, 0], m[0, 1] = 1.7e308, -1.7e308
        assert SoElement.from_matrix(m).comps.tolist() == [1.7e308, 0.0, 0.0]
        m[0, 1] = 1.7e308
        with pytest.raises(ValueError, match="not skew-symmetric"):
            SoElement.from_matrix(m)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_from_matrix_rejects_non_finite_entries_first(self, bad):
        # checked before the skewness test, whose inf + -inf would warn
        m = np.array([[0.0, bad], [-bad, 0.0]])
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            SoElement.from_matrix(m)

    def test_from_matrix_keeps_the_bits_of_ordinary_inputs(self):
        # halving is exact, so (m_ji - m_ij) / 2 is unchanged bit for bit
        rng = np.random.default_rng(5)
        for n in (2, 5, 8):
            a = rng.normal(size=(n, n))
            m = a - a.T
            want = [(m[j, i] - m[i, j]) / 2.0 for i, j in wedge_pairs(n)]
            assert SoElement.from_matrix(m).comps.tobytes() == np.array(want).tobytes()

    def test_from_vectors(self):
        x = np.array([1.0, 0, 0, 0])
        y = np.array([0, 1.0, 0, 0])
        assert np.array_equal(SoElement.from_vectors(x, y).comps, wedge_element(4, 0, 1).comps)


class TestAction:
    def test_kills_metric(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 7):
            lam = rand_so(rng, n)
            assert so_act(lam, identity_sym2(n)).norm_sq() == 0.0

    def test_diag_sym2_example(self):
        # the sharp symmetric pair; the equality of norms is the contract,
        # the overall sign follows the pinned identification
        h = Sym2(np.diag([1.0, -1.0]))
        lam = wedge_element(2, 0, 1)
        lh = so_act(lam, h)
        assert np.array_equal(lh.mat, np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert lh.norm_sq() == pytest.approx(4 * h.norm_sq() * lam.norm_sq())

    def test_two_form_rotation_pair(self):
        # w1 = e1^e3 - e2^e4 rotates onto +/- (e1^e4 + e2^e3) under
        # L = e1^e2 + e3^e4, with squared norm 8
        n = 4
        comps = np.zeros(6)
        comps[wedge_index(n, 0, 2)] = 1.0
        comps[wedge_index(n, 1, 3)] = -1.0
        w1 = PForm(n, 2, comps)
        lcomps = np.zeros(6)
        lcomps[wedge_index(n, 0, 1)] = 1.0
        lcomps[wedge_index(n, 2, 3)] = 1.0
        lam = SoElement(n, lcomps)
        lw1 = so_act(lam, w1)
        want = np.zeros(6)
        want[wedge_index(n, 0, 3)] = 2.0
        want[wedge_index(n, 1, 2)] = 2.0
        assert np.array_equal(lw1.comps, want)
        assert lw1.norm_sq() == pytest.approx(8.0)
        w2 = PForm(n, 2, want / 2.0)
        assert np.array_equal(so_act(lam, w2).comps, -2.0 * w1.comps)

    def test_kind_preservation(self):
        rng = np.random.default_rng(4)
        n = 4
        lam = rand_so(rng, n)
        assert isinstance(so_act(lam, rand_sym2(rng, n)), Sym2)
        assert isinstance(so_act(lam, PForm(n, 2, rng.normal(size=6))), PForm)
        rm = kulkarni_nomizu(rand_sym2(rng, n), rand_sym2(rng, n))
        out = so_act(lam, rm)
        assert isinstance(out, CurvTensor)
        assert out.pair_skew and out.pair_symmetric and out.bianchi

    def test_pform_action_matches_dense(self):
        rng = np.random.default_rng(5)
        for n, p in ((4, 2), (5, 3), (6, 4)):
            w = PForm(n, p, rng.normal(size=math.comb(n, p)))
            lam = rand_so(rng, n)
            compact = so_act(lam, w)
            dense = so_act(lam, w.to_tensor())
            assert np.allclose(
                compact.to_tensor().array, dense.array, atol=1e-12
            )

    def test_wedge_table_matches_dense_action(self):
        # the table's image of each basis form against e_a^e_b acting on
        # every slot of the dense alternating tensor, read on increasing
        # indices; the dense side uses only the wedge's skew matrix
        for n in range(2, 7):
            for p in range(1, n + 1):
                tgt, src, sgn = _wedge_table(n, p)
                tuples = increasing_tuples(n, p)
                for c, (a, b) in enumerate(wedge_pairs(n)):
                    skew = np.zeros((n, n))
                    skew[b, a], skew[a, b] = 1.0, -1.0
                    for col, idx in enumerate(tuples):
                        dense = wedge_basis_form(n, idx).to_tensor().array
                        moved = sum(
                            np.moveaxis(np.tensordot(skew, dense, axes=([1], [slot])), 0, slot)
                            for slot in range(p)
                        )
                        want = np.array([moved[t] for t in tuples])
                        got = np.zeros(len(tuples))
                        got[tgt[c]] = sgn[c] * (src[c] == col)
                        assert np.array_equal(got, want), (n, p, (a, b), idx)

    def test_operator_action_factor_four(self):
        rng = np.random.default_rng(6)
        for n in (3, 4, 5):
            r = random_sym_operator(rng, n)
            lam = rand_so(rng, n)
            lr = act_on_operator(lam, r)
            lrm = so_act(lam, tensor_from_op(r))
            assert lrm.norm_sq() == pytest.approx(4.0 * lr.norm_sq(), rel=1e-12)
            assert np.allclose(
                tensor_from_op(lr).array, lrm.array, atol=1e-12 * max(1, lrm.norm_sq())
            )

    @pytest.mark.parametrize("n", range(3, 9))
    def test_leibniz_rule_for_kn_on_both_coordinates(self, n):
        # Prop. 1.2: the action is a derivation of the Kulkarni-Nomizu
        # product, on the dense (0,4)-tensor and on operator coordinates,
        # and the two routes agree
        rng = np.random.default_rng(100 + n)
        lam, s, u = rand_so(rng, n), rand_sym2(rng, n), rand_sym2(rng, n)
        ls, lu = so_act(lam, s), so_act(lam, u)
        dense = so_act(lam, kulkarni_nomizu(s, u))
        want = kulkarni_nomizu(ls, u).array + kulkarni_nomizu(s, lu).array
        scale = max(1.0, np.abs(dense.array).max(), np.abs(want).max())
        assert np.abs(dense.array - want).max() <= 1e-12 * scale
        op = so_act(lam, op_from_tensor(kulkarni_nomizu(s, u)))
        gathered = op_from_tensor(dense).mat
        scale = max(1.0, np.abs(gathered).max(), np.abs(op.mat).max())
        assert np.abs(gathered - op.mat).max() <= 1e-12 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            so_act(wedge_element(3, 0, 1), identity_sym2(4))


class TestHat:
    def test_metric_hat_vanishes(self):
        assert hat_norm_sq(identity_sym2(5)) == 0.0
        assert all(b.norm_sq() == 0.0 for b in hat(identity_sym2(5)).blocks)

    def test_one_form_hat(self):
        w = wedge_basis_form(3, (0,))
        assert hat_norm_sq(w) == pytest.approx(2.0)

    def test_pform_hat_norm(self):
        rng = np.random.default_rng(7)
        for n, p in ((4, 1), (5, 2), (6, 3), (6, 5)):
            w = PForm(n, p, rng.normal(size=math.comb(n, p)))
            assert hat_norm_sq(w) == pytest.approx(p * (n - p) * w.norm_sq(), rel=1e-12)

    def test_sym2_hat_norm(self):
        h = Sym2(np.diag([1.0, -1.0]))
        assert hat_norm_sq(h) == pytest.approx(8.0)

    def test_closed_form_expansion_exact(self):
        for n, idx in ((2, (0,)), (4, (0, 2)), (5, (1, 2, 4)), (6, (0, 2, 4)), (4, (0, 1, 2, 3))):
            w = wedge_basis_form(n, idx)
            got = np.vstack([b.comps for b in hat(w).blocks])
            assert np.array_equal(got, hat_wedge_closed_form(n, idx))

    def test_hat_pairing_reproduces_action(self):
        rng = np.random.default_rng(8)
        h = rand_sym2(rng, 4)
        lam = rand_so(rng, 4)
        paired = hat(h).pair_with(lam)
        direct = so_act(lam, h)
        assert np.allclose(paired.mat, direct.mat, atol=1e-12)

    def test_sphere_product_hat_values(self):
        for p, n, want in ((2, 4, 8.0), (2, 5, 12.0), (3, 6, 36.0)):
            assert hat_norm_sq(sphere_product_op(p, n)) == pytest.approx(want, rel=1e-12)
        for k, n, want in ((1, 4, 8.0), (2, 4, 16.0), (2, 6, 32.0)):
            assert hat_norm_sq(product_of_spheres_op(k, n)) == pytest.approx(want, rel=1e-12)

    def test_operator_kind_hat_blocks(self):
        rng = np.random.default_rng(20)
        r = random_sym_operator(rng, 4)
        ht = hat(r)
        for which, (i, j) in enumerate(wedge_pairs(4)):
            direct = act_on_operator(wedge_element(4, i, j), r)
            assert np.allclose(ht.blocks[which].mat, direct.mat, atol=1e-13)
        lam = rand_so(rng, 4)
        assert isinstance(so_act(lam, r), type(r))
        paired = ht.pair_with(lam)
        assert np.allclose(paired.mat, act_on_operator(lam, r).mat, atol=1e-12)

    def test_operator_hat_blocks_match_dense_action(self):
        rng = np.random.default_rng(22)
        for n in range(3, 7):
            r = random_sym_operator(rng, n)
            dense = tensor_from_op(r)
            for block, (i, j) in zip(hat(r).blocks, wedge_pairs(n)):
                want = so_act(wedge_element(n, i, j), dense).array
                got = tensor_from_op(block).array
                assert np.allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_curvature_term_on_operator_kind(self):
        rng = np.random.default_rng(21)
        r = random_sym_operator(rng, 4)
        s = random_sym_operator(rng, 4)
        # with the identity the term reduces to the hat norm
        got = curvature_term(identity_operator(4), s, s)
        assert got == pytest.approx(hat_norm_sq(s), rel=1e-12)
        # symmetric in its tensor arguments
        t = random_sym_operator(rng, 4)
        assert curvature_term(r, s, t) == pytest.approx(curvature_term(r, t, s), rel=1e-10)


class TestCurvatureTerm:
    def test_identity_gives_hat_norm(self):
        rng = np.random.default_rng(9)
        for n in (3, 4, 5):
            h = rand_sym2(rng, n)
            assert curvature_term(identity_operator(n), h, h) == pytest.approx(
                hat_norm_sq(h), rel=1e-12
            )

    def test_flat_term_form(self):
        op = cp2_op()
        comps = np.zeros(6)
        comps[wedge_index(4, 0, 3)] = 1.0
        comps[wedge_index(4, 1, 2)] = 1.0
        w = PForm(4, 2, comps)
        assert curvature_term(op, w, w) == pytest.approx(0.0, abs=1e-12)

    def test_negative_two_form_term(self):
        for n in (4, 5, 6):
            op, w = negative_2form_term_op(n, 1.0)
            assert curvature_term(op, w, w) == pytest.approx(-8.0, rel=1e-12)

    def test_kind_and_dimension_checks(self):
        rng = np.random.default_rng(10)
        with pytest.raises(TypeError):
            curvature_term(identity_operator(3), rand_sym2(rng, 3), wedge_basis_form(3, (0,)))
        with pytest.raises(ValueError):
            curvature_term(identity_operator(3), rand_sym2(rng, 4), rand_sym2(rng, 4))
        # forms or (0,k)-tensors of different degree, before any product of
        # their hat rows
        with pytest.raises(ValueError, match="degree mismatch: 1 vs 2"):
            curvature_term(identity_operator(4), wedge_basis_form(4, (0,)), wedge_basis_form(4, (0, 1)))
        with pytest.raises(ValueError, match="degree mismatch: 2 vs 3"):
            curvature_term(identity_operator(4), Tensor0k(np.ones((4, 4))), Tensor0k(np.ones((4, 4, 4))))

    def test_mismatch_messages(self):
        # inner and curvature_term share one kind, dimension and degree check
        with pytest.raises(ValueError, match="dimension mismatch: 4 vs 5"):
            curvature_term(identity_operator(4), identity_sym2(5), identity_sym2(5))
        with pytest.raises(ValueError, match="dimension mismatch: 4 vs 5"):
            curvature_term(identity_operator(4), identity_sym2(4), identity_sym2(5))
        with pytest.raises(TypeError, match="kind mismatch: Sym2 vs PForm"):
            inner(identity_sym2(4), wedge_basis_form(4, (0,)))
        with pytest.raises(ValueError, match="dimension mismatch: 4 vs 5"):
            inner(identity_sym2(4), identity_sym2(5))
        with pytest.raises(ValueError, match="degree mismatch: 2 vs 3"):
            inner(Tensor0k(np.ones((4, 4))), Tensor0k(np.ones((4, 4, 4))))
        with pytest.raises(ValueError, match="degree mismatch: 1 vs 2"):
            inner(wedge_basis_form(4, (0,)), wedge_basis_form(4, (0, 1)))


class TestRic:
    def test_identity_on_forms(self):
        rng = np.random.default_rng(11)
        for n, p in ((4, 1), (5, 2), (5, 4)):
            w = PForm(n, p, rng.normal(size=math.comb(n, p)))
            got = ric_of(identity_operator(n), w)
            assert np.allclose(got.comps, p * (n - p) * w.comps, atol=1e-12)

    def test_identity_on_sym2(self):
        rng = np.random.default_rng(12)
        for n in (3, 5):
            h = rand_sym2(rng, n)
            got = ric_of(identity_operator(n), h)
            assert np.allclose(got.mat, 2 * n * h.traceless().mat, atol=1e-12)

    def test_identity_on_curvature(self):
        rng = np.random.default_rng(13)
        n = 4
        rb = random_bianchi_operator(rng, n)
        rm = tensor_from_op(rb)
        ric = Sym2(np.einsum("iaja->ij", rm.array))
        got = ric_of(identity_operator(n), rm)
        want = 4 * (n - 1) * rm.array - 2 * kulkarni_nomizu(identity_sym2(n), ric).array
        assert np.allclose(got.array, want, atol=1e-11)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_identity_on_curvature_on_both_coordinates(self, n):
        # Prop. 2.8: Ric_I(Rm) = 4(n-1) Rm - 2 KN(g, ric) on the dense
        # (0,4)-tensor and on operator coordinates, and the two routes agree,
        # as do the hat norms, |hat Rm|^2 = 4 |hat R_op|^2
        rng = np.random.default_rng(200 + n)
        rb = random_bianchi_operator(rng, n)
        rm = tensor_from_op(rb)
        ric = Sym2(np.einsum("iaja->ij", rm.array))
        kn = kulkarni_nomizu(identity_sym2(n), ric)
        dense = ric_of(identity_operator(n), rm).array
        want = 4.0 * (n - 1) * rm.array - 2.0 * kn.array
        scale = max(1.0, np.abs(dense).max(), np.abs(want).max())
        assert np.abs(dense - want).max() <= 1e-12 * scale
        op = ric_of(identity_operator(n), rb).mat
        want = 4.0 * (n - 1) * rb.mat - 2.0 * op_from_tensor(kn).mat
        scale = max(1.0, np.abs(op).max(), np.abs(want).max())
        assert np.abs(op - want).max() <= 1e-12 * scale
        gathered = op_from_tensor(CurvTensor(dense)).mat
        assert np.abs(gathered - op).max() <= 1e-12 * scale
        assert hat_norm_sq(rm) == pytest.approx(4.0 * hat_norm_sq(rb), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_general_operator_on_curvature_on_both_coordinates(self, n):
        # Ric_R commutes with A -> A_op for a general symmetric R, and for
        # pair-skew tensors <A, B> = 4 <A_op, B_op>: the dense inner product
        # and curvature term are 4 times those on operator coordinates
        rng = np.random.default_rng(300 + n)
        r = random_sym_operator(rng, n)
        s, u = random_bianchi_operator(rng, n), random_bianchi_operator(rng, n)
        rm_s, rm_u = tensor_from_op(s), tensor_from_op(u)
        op = ric_of(r, s).mat
        gathered = op_from_tensor(ric_of(r, rm_s)).mat
        assert np.abs(gathered - op).max() <= 1e-12 * max(1.0, np.abs(op).max())
        on_ops = float(np.sum(op * u.mat))
        assert inner(ric_of(r, rm_s), rm_u) == pytest.approx(4.0 * on_ops, rel=1e-12, abs=0.0)
        term = curvature_term(r, rm_s, rm_u)
        assert term == pytest.approx(4.0 * curvature_term(r, s, u), rel=1e-12, abs=0.0)

    def test_metric_in_kernel(self):
        got = ric_of(identity_operator(4), identity_sym2(4))
        assert got.norm_sq() == pytest.approx(0.0, abs=1e-14)

    def test_covector_closed_form(self):
        w = Tensor0k(np.array([1.0, 2.0, 3.0]))
        got = ric_identity_closed_form(w)
        assert np.allclose(got.array, 2 * w.array)

    def test_closed_form_matches_definitional(self):
        rng = np.random.default_rng(14)
        for n, k in ((3, 3), (4, 2), (5, 3), (4, 4)):
            t = Tensor0k(rng.normal(size=(n,) * k))
            a = ric_of(identity_operator(n), t)
            b = ric_identity_closed_form(t)
            assert np.allclose(a.array, b.array, atol=1e-11)

    def test_adjointness_random(self):
        rng = np.random.default_rng(15)
        for n in (3, 4, 5):
            r = random_sym_operator(rng, n)
            s, u = rand_sym2(rng, n), rand_sym2(rng, n)
            assert inner(ric_of(r, s), u) == pytest.approx(
                curvature_term(r, s, u), rel=1e-10, abs=1e-10
            )

    def test_matches_pairwise_definition(self):
        # -sum_c Xi_c (sum_a R_ac Xi_a T), one pair at a time through so_act
        def values(t):
            return t.comps if isinstance(t, PForm) else t.mat if isinstance(t, Sym2) else t.array

        rng = np.random.default_rng(18)
        for n in (3, 4, 5):
            r = random_sym_operator(rng, n)
            basis = [wedge_element(n, i, j) for i, j in wedge_pairs(n)]
            tensors = [Tensor0k(rng.normal(size=(n,) * k)) for k in (1, 2, 3)]
            tensors += [rand_sym2(rng, n), tensor_from_op(random_sym_operator(rng, n))]
            tensors += [PForm(n, p, rng.normal(size=math.comb(n, p))) for p in range(1, n)]
            for t in tensors:
                want = -sum(
                    values(so_act(xi, so_act(SoElement(n, r.mat[:, c]), t)))
                    for c, xi in enumerate(basis)
                )
                got = values(ric_of(r, t))
                scale = max(1.0, float(np.abs(want).max()))
                assert np.allclose(got, want, rtol=0.0, atol=1e-12 * scale)

    def test_compact_forms_match_dense(self):
        # forms are evaluated in compact coordinates; their densified
        # alternating tensors take the dense slot path
        rng = np.random.default_rng(17)
        for n in range(3, 7):
            r = random_sym_operator(rng, n)
            for p in range(1, n + 1):
                w = PForm(n, p, rng.normal(size=math.comb(n, p)))
                dense = ric_of(r, w.to_tensor()).array
                restricted = [dense[idx] for idx in increasing_tuples(n, p)]
                got = ric_of(r, w).comps
                scale = max(1.0, float(np.abs(dense).max()))
                assert np.allclose(got, restricted, rtol=0.0, atol=1e-12 * scale)

    def test_basis_independence_of_term(self):
        rng = np.random.default_rng(16)
        n = 4
        r = random_sym_operator(rng, n)
        s = rand_sym2(rng, n)
        base = curvature_term(r, s, s)
        q, rr = np.linalg.qr(rng.normal(size=(6, 6)))
        q = q * np.sign(np.diag(rr))
        total = 0.0
        blocks = [so_act(SoElement(n, q[:, b]), s) for b in range(6)]
        rp = q.T @ r.mat @ q
        for i in range(6):
            for j in range(6):
                total += rp[i, j] * inner(blocks[i], blocks[j])
        assert total == pytest.approx(base, rel=1e-9)


def reference_block_rows(values, n, p, k):
    """_block_rows as a gather through the table's sources followed by a
    product with its signs, the oracle of the signed gather."""
    from curvop.action import _slot_views

    tgt, src, sgn = _wedge_table(n, p)
    pair = np.arange(tgt.shape[0])[:, None]
    out = np.zeros(values.shape[:-1] + (tgt.shape[0], values.shape[-1]))
    dim = math.comb(n, p)
    views = zip(_slot_views(out, dim, k), _slot_views(values, dim, k))
    for slot, (moved_out, moved_in) in enumerate(views):
        image = moved_in[..., src, :, :]
        image *= sgn[:, :, None, None]
        if slot == 0:
            moved_out[..., pair, tgt, :, :] = image
        else:
            moved_out[..., pair, tgt, :, :] += image
    return out


class TestStackedKernels:
    """A stack through _block_rows, _act and _sum_blocks is the per-item
    calls, bit for bit, and a row of a kind's stacked kernels is what the
    single-object functions return."""

    @staticmethod
    def layouts(n):
        # (p, k) of every kind: Tensor0k k = 1..4 (Sym2 and curvature
        # tensors share k = 2 and k = 4), p-forms, operators
        return [(1, k) for k in (1, 2, 3, 4)] + [(p, 1) for p in range(1, n + 1)] + [(2, 2)]

    def test_stack_matches_per_item_calls(self):
        from curvop.action import _act, _block_rows, _sum_blocks

        rng = np.random.default_rng(19)
        for n in range(3, 7):
            for p, k in self.layouts(n):
                size = math.comb(n, p) ** k
                values = rng.normal(size=(5, size))
                comps = rng.normal(size=(5, wedge_count(n)))
                rows = _block_rows(values, n, p, k)
                acted = _act(comps, values, n, p, k)
                summed = _sum_blocks(rows, n, p, k)
                for i in range(5):
                    single_rows = _block_rows(values[i], n, p, k)
                    assert rows[i].tobytes() == single_rows.tobytes(), (n, p, k)
                    assert acted[i].tobytes() == _act(comps[i], values[i], n, p, k).tobytes()
                    assert summed[i].tobytes() == _sum_blocks(single_rows, n, p, k).tobytes()

    def test_block_rows_match_reference_bytes(self):
        from curvop.action import _block_rows

        rng = np.random.default_rng(21)
        for n in range(3, 9):
            for p, k in self.layouts(n):
                size = math.comb(n, p) ** k
                for shape in ((size,), (3, size)):
                    # exact zeros too, whose sign the products with -1 flip
                    values = rng.normal(size=shape)
                    values[..., ::5] = 0.0
                    got = _block_rows(values, n, p, k)
                    assert got.tobytes() == reference_block_rows(values, n, p, k).tobytes(), (n, p, k, shape)

    def test_stack_matches_public_calls(self):
        from curvop.action import _hat_norms_consuming, _layout, _terms

        rng = np.random.default_rng(20)
        for n in range(3, 7):
            r = random_sym_operator(rng, n)
            lam = rand_so(rng, n)
            tensors = [Tensor0k(rng.normal(size=(n,) * k)) for k in (1, 2, 3, 4)]
            tensors += [PForm(n, p, rng.normal(size=math.comb(n, p))) for p in range(1, n + 1)]
            tensors += [rand_sym2(rng, n), random_sym_operator(rng, n)]
            tensors.append(tensor_from_op(random_sym_operator(rng, n)))
            for t in tensors:
                kind, values, deg = _layout(t)
                stack = np.stack([values] * 3)
                acted = kind.acted(np.stack([lam.comps] * 3), stack, n, deg)
                assert acted[1].tobytes() == _layout(so_act(lam, t))[1].tobytes()
                assert kind.norm_sqs(acted)[0] == so_act(lam, t).norm_sq()
                assert kind.norm_sqs(stack)[2] == t.norm_sq()
                ric, rows = kind.rics(np.stack([r.mat] * 3), stack, n, deg)
                assert ric[1].tobytes() == _layout(ric_of(r, t))[1].tobytes()
                term = _terms(np.stack([r.mat] * 3), rows, rows)
                assert term[2] == curvature_term(r, t, t)
                assert _hat_norms_consuming(rows)[0] == hat_norm_sq(t)


def degree(t):
    """A form's p or a (0,k)-tensor's k; None for the kinds of fixed degree."""
    return getattr(t, "p", getattr(t, "k", None))


def corrupted_act(monkeypatch, delta, when=lambda p, k: True):
    """Make _act add delta to the second flat coordinate of its results with
    slots (p, k) for which when holds: the (0, 1) entry of a matrix, the
    (0, 0, 0, 1) entry of a (0,4)-tensor."""
    from curvop import action

    real = action._act

    def act(comps, values, n, p, k):
        out = real(comps, values, n, p, k)
        if when(p, k):
            out[..., 1] += delta
        return out

    monkeypatch.setattr(action, "_act", act)


class TestActionGuards:
    """The action checks its results as the kinds' constructors and so_act
    do, for one tensor and for a stack alike."""

    def test_asymmetric_results_raise(self, monkeypatch):
        from curvop.action import _KINDS

        rng = np.random.default_rng(21)
        corrupted_act(monkeypatch, 1e-3)
        lam = rand_so(rng, 4)
        for t in (rand_sym2(rng, 4), random_sym_operator(rng, 4)):
            kind = _KINDS[type(t)]
            with pytest.raises(ValueError, match="not symmetric"):
                so_act(lam, t)
            with pytest.raises(ValueError, match="not symmetric"):
                kind.acted(np.stack([lam.comps] * 2), np.stack([getattr(t, kind.values)] * 2), 4)

    def test_lost_bianchi_identity_raises(self, monkeypatch):
        from curvop.action import _KINDS

        rng = np.random.default_rng(22)
        corrupted_act(monkeypatch, 1e-3)
        lam = rand_so(rng, 4)
        rm = tensor_from_op(random_bianchi_operator(rng, 4))
        with pytest.raises(AssertionError, match="Bianchi"):
            so_act(lam, rm)
        with pytest.raises(AssertionError, match="Bianchi"):
            _KINDS[CurvTensor].acted(np.stack([lam.comps] * 2), np.stack([rm.array] * 2), 4)
        # a tensor without the identity has none to lose
        generic = tensor_from_op(random_sym_operator(rng, 4))
        assert not generic.bianchi
        so_act(lam, generic)

    def test_bianchi_check_reads_the_values_that_keep_the_identity(self, monkeypatch):
        # the check takes a result's residual only where its value keeps
        # the identity: one such value in a stack is enough to raise, and a
        # stack without one has no identity to lose and no result residual
        # to take
        from curvop import action

        rng = np.random.default_rng(24)
        corrupted_act(monkeypatch, 1e-3)
        lam = rand_so(rng, 4)
        rm = tensor_from_op(random_bianchi_operator(rng, 4)).array
        generic = [tensor_from_op(random_sym_operator(rng, 4)).array for _ in range(2)]
        comps = np.stack([lam.comps] * 3)
        for mixed in ([rm] + generic, generic[:1] + [rm] + generic[1:], generic + [rm]):
            with pytest.raises(AssertionError, match="Bianchi"):
                action._KINDS[CurvTensor].acted(comps, np.stack(mixed), 4)
        holds, checked = action._bianchi_holds, []
        monkeypatch.setattr(action, "_bianchi_holds", lambda arr: checked.append(len(arr)) or holds(arr))
        action._KINDS[CurvTensor].acted(comps[:2], np.stack(generic), 4)
        assert checked == [2]

    def test_non_finite_results_raise(self, monkeypatch):
        from curvop.action import _KINDS

        rng = np.random.default_rng(23)
        corrupted_act(monkeypatch, np.nan)
        lam = rand_so(rng, 4)
        for t in (Tensor0k(rng.normal(size=(4, 4, 4))), PForm(4, 2, rng.normal(size=6))):
            kind = _KINDS[type(t)]
            with pytest.raises(ValueError, match="finite"):
                so_act(lam, t)
            with pytest.raises(ValueError, match="finite"):
                kind.acted(np.stack([lam.comps] * 2), np.stack([getattr(t, kind.values)] * 2), 4, degree(t))

    # the action kills 2I and the metric's curvature tensor, so near them a
    # result is small while its rounding scales with the input: the guards'
    # unit floor keeps these results, which a symmetry or Bianchi bound
    # relative to the result alone would refuse
    def test_operator_results_near_an_invariant_return(self):
        rng = np.random.default_rng(25)
        size = wedge_count(8)
        for _ in range(20):
            m = rng.normal(size=(size, size))
            so_act(rand_so(rng, 8), CurvatureOperator(8, 2.0 * np.eye(size) + 1e-8 * (m + m.T) / 2))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_curvature_results_near_an_invariant_return(self, n):
        rng = np.random.default_rng(26)
        for _ in range(5):
            near = 2.0 * np.eye(wedge_count(n)) + 1e-8 * random_bianchi_operator(rng, n).mat
            rm = tensor_from_op(CurvatureOperator(n, near))
            assert rm.bianchi
            so_act(rand_so(rng, n), rm)

    def test_results_too_large_to_symmetrize_raise(self):
        from curvop.action import _KINDS

        # the action of e_0^e_1 on diag(a, -a, 0) is finite, 2a off the
        # diagonal, but its symmetric part overflowed to inf
        h = Sym2(np.diag([8e307, -8e307, 0.0]))
        lam = SoElement(3, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="action result entries must be below 2\\*\\*1023"):
            so_act(lam, h)
        with pytest.raises(ValueError, match="action result entries must be below 2\\*\\*1023"):
            _KINDS[Sym2].acted(np.stack([lam.comps] * 2), np.stack([h.mat] * 2), 3)

    def test_hat_blocks_too_large_to_symmetrize_raise(self):
        # the e_0^e_1 block of diag(a, -a, 0) is 2a off the diagonal: past
        # 2**1023 for a = 8e307, and below it for a = 4e307, whose pairing
        # with 2 e_0^e_1 is past it again
        with pytest.raises(ValueError, match="hat block entries must be below 2\\*\\*1023"):
            hat(Sym2(np.diag([8e307, -8e307, 0.0])))
        ht = hat(Sym2(np.diag([4e307, -4e307, 0.0])))
        with pytest.raises(ValueError, match="pairing entries must be below 2\\*\\*1023"):
            ht.pair_with(SoElement(3, np.array([2.0, 0.0, 0.0])))

    def test_batched_lemma_2_2_raises(self, monkeypatch):
        from curvop.verify import run_suite

        # five trials per dimension reach every case
        corrupted_act(monkeypatch, 1e-3, lambda p, k: (p, k) == (2, 2))
        with pytest.raises(ValueError, match="not symmetric"):
            run_suite("lemma-2.2", trials=5, seed=1)
        monkeypatch.undo()
        corrupted_act(monkeypatch, 1e-3, lambda p, k: k == 4)
        with pytest.raises(AssertionError, match="Bianchi"):
            run_suite("lemma-2.2", trials=5, seed=1)


class TestResultsBuiltOnce:
    """A single-tensor result is checked once, by _Kind.stored, and built
    over the stored values without a public constructor."""

    @staticmethod
    def counted(monkeypatch):
        # tensors, operators and action each bind _symmetric_part
        from curvop import action, operators, tensors

        calls, original = [], tensors._symmetric_part
        for module in (tensors, operators, action):
            monkeypatch.setattr(module, "_symmetric_part", lambda mats, what: calls.append(what) or original(mats, what))
        return calls

    @pytest.mark.parametrize("make", [rand_sym2, random_sym_operator], ids=["Sym2", "CurvatureOperator"])
    def test_each_symmetric_result_is_symmetrized_once(self, monkeypatch, make):
        rng = np.random.default_rng(31)
        t, lam, r = make(rng, 5), rand_so(rng, 5), random_sym_operator(rng, 5)
        ht = hat(t)
        calls = self.counted(monkeypatch)
        for call in (lambda: so_act(lam, t), lambda: act_on_operator(lam, t), lambda: ric_of(r, t),
                     lambda: hat(t), lambda: ht.pair_with(lam)):
            calls.clear()
            call()
            assert len(calls) == 1, calls

    def test_underscored_slots_are_caches_the_constructor_leaves_unread(self):
        # _rebuild copies the public slots and starts every underscored one
        # at None, so each must be a cache that a first read fills
        from curvop.action import _KINDS

        rng = np.random.default_rng(32)
        samples = [PForm(4, 2, rng.normal(size=6)), rand_sym2(rng, 4), Tensor0k(rng.normal(size=(4, 4, 4))),
                   tensor_from_op(random_sym_operator(rng, 4)), random_sym_operator(rng, 4)]
        assert {type(t) for t in samples} == set(_KINDS)
        for t in samples:
            private = [slot for slot in type(t).__slots__ if slot.startswith("_")]
            assert all(getattr(t, slot) is None for slot in private)
            repr(t)  # reads every flag
            assert all(getattr(t, slot) is not None for slot in private)

    def test_results_are_frozen_tensors_of_the_template(self):
        # the template's public slots other than its values, n and a degree
        # or N, carry over
        from curvop.action import _KINDS

        rng = np.random.default_rng(33)
        lam = rand_so(rng, 5)
        for t in (PForm(5, 3, rng.normal(size=10)), Tensor0k(rng.normal(size=(5, 5))), rand_sym2(rng, 5),
                  tensor_from_op(random_sym_operator(rng, 5)), random_sym_operator(rng, 5)):
            values = _KINDS[type(t)].values
            shape = [slot for slot in type(t).__slots__ if slot != values and not slot.startswith("_")]
            ht = hat(t)
            for out in (so_act(lam, t), ric_of(random_sym_operator(rng, 5), t), *ht.blocks, ht.pair_with(lam)):
                assert type(out) is type(t)
                assert [getattr(out, slot) for slot in shape] == [getattr(t, slot) for slot in shape]
                assert getattr(out, values).shape == getattr(t, values).shape
                assert not getattr(out, values).flags.writeable
