"""Curvature operators: conversions, splits, decomposition, spectra."""

import numpy as np
import pytest

from curvop import (
    CurvatureOperator,
    CurvTensor,
    SoElement,
    Spectrum,
    Sym2,
    act_on_operator,
    alternation,
    bianchi_split,
    complex_sectional,
    cp2_op,
    decompose,
    identity_operator,
    identity_sym2,
    jacobi_eigh,
    jacobi_eigh_batch,
    kulkarni_nomizu,
    negative_2form_term_op,
    op_from_tensor,
    singer_thorpe_op,
    so_act,
    spectrum,
    sphere_product_op,
    tensor_from_op,
    wedge_count,
)
from curvop import operators
from curvop.operators import _round_robin, wedge_coordinates
from curvop.tensors import _IDENTITY_TOL, _bianchi_holds, _kn, _symmetrized, _traceless, wedge_pairs
from curvop.verify import random_bianchi_operator, random_orthogonal, random_sym_operator


def ricci(op):
    """Ricci tensor and scalar curvature of an operator's (0,4)-tensor."""
    ric = Sym2(np.einsum("iaja->ij", tensor_from_op(op).array))
    return ric, float(np.trace(ric.mat))


def dense_kn(a, b):
    """Kulkarni-Nomizu products of stacked symmetric matrices as (0,4)-arrays,
    one outer product and three transposed views of it, with the -0.0
    products turned to +0.0 as einsum turns them."""
    p = a[..., :, None, :, None] * b[..., None, :, None, :]
    p += 0.0
    q = p.swapaxes(-4, -3)
    return p - p.swapaxes(-2, -1) + q.swapaxes(-2, -1) - q


def dense_metric_square(n):
    """KN(g, g) = 2 (d_ik d_jl - d_il d_jk) as a (0,4)-array."""
    eye = np.eye(n)
    return 2.0 * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))


def reference_decompose(rm, n):
    """The decomposition on stacked (0,4)-arrays rm: the dense twin of
    operators._decompose, certified by the tensors' Bianchi residual, with
    the Ricci tensor contracted by einsum and KN(g, ric0) gathered from the
    dense product."""
    if not np.all(_bianchi_holds(rm)):
        raise ValueError("operator does not satisfy the first Bianchi identity")
    ric = _symmetrized(np.einsum("...iaja->...ij", rm))
    scal = np.trace(ric, axis1=-2, axis2=-1)
    ric0 = _traceless(ric)
    scal_part = (scal / (2.0 * (n - 1) * n))[..., None, None] * (2.0 * np.eye(wedge_count(n)))
    kn_ric0 = operators._ops_from_tensors(dense_kn(np.eye(n), ric0), n)
    weyl = operators._ops_from_tensors(rm, n) - scal_part - kn_ric0 / (n - 2.0)
    return scal, ric, ric0, weyl, kn_ric0


def bianchi_stack(rng, n, batch):
    """Operator matrices of random Bianchi operators stacked to batch."""
    count = int(np.prod(batch, dtype=int))
    mats = np.array([random_bianchi_operator(rng, n).mat for _ in range(count)])
    return mats.reshape(tuple(batch) + mats.shape[1:])


def wedge_isometry(q):
    """Matrix of the isometry q of R^n on the lexicographic wedge basis."""
    n = q.shape[0]
    return np.column_stack([wedge_coordinates(q[:, i], q[:, j], n) for i, j in wedge_pairs(n)])


class TestConversions:
    def test_half_gg_is_identity(self):
        g = identity_sym2(4)
        half = CurvTensor(kulkarni_nomizu(g, g).array / 2.0)
        op = op_from_tensor(half)
        assert np.array_equal(op.mat, np.eye(6))
        assert op.bianchi_certified is True

    def test_certificate_of_pair_symmetric_non_bianchi_tensor_is_false(self):
        op = singer_thorpe_op((1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
        rm = tensor_from_op(op)
        assert rm.pair_skew and rm.pair_symmetric and not rm.bianchi
        assert op_from_tensor(rm).bianchi_certified is False

    def test_norm_factor_four(self):
        g = identity_sym2(3)
        gg = kulkarni_nomizu(g, g)
        op = op_from_tensor(gg)
        assert gg.norm_sq() == pytest.approx(48.0)
        assert op.norm_sq() == pytest.approx(12.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for n in (3, 4, 6):
            r = random_sym_operator(rng, n)
            back = op_from_tensor(tensor_from_op(r))
            assert np.allclose(back.mat, r.mat, atol=1e-13)
        op = singer_thorpe_op((1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        again = op_from_tensor(tensor_from_op(op))
        assert np.allclose(again.mat, op.mat, atol=1e-13)

    def test_gather_inverts_the_spread_bit_for_bit(self):
        rng = np.random.default_rng(1)
        for n in range(3, 9):
            size = wedge_count(n)
            raw = rng.normal(size=(2, 3, size, size))
            mats = (raw + raw.swapaxes(-1, -2)) / 2.0
            back = operators._ops_from_tensors(operators._tensors_from_ops(mats, n), n)
            assert back.shape == mats.shape
            assert back.tobytes() == mats.tobytes()

    def test_rejects_missing_symmetries(self):
        with pytest.raises(ValueError):
            op_from_tensor(CurvTensor(np.ones((3, 3, 3, 3))))

    def test_operator_requires_symmetry(self):
        with pytest.raises(ValueError):
            CurvatureOperator(3, np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))


class TestBianchiSplit:
    def test_identity_has_no_alternating_part(self):
        _, lam4 = bianchi_split(identity_operator(4))
        assert lam4.norm_sq() == pytest.approx(0.0, abs=1e-24)

    def test_split_st_ones_and_zeros(self):
        op = singer_thorpe_op((1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
        assert op.bianchi_certified is False
        rb, lam4 = bianchi_split(op)
        assert lam4.norm_sq() > 0.1
        assert rb.bianchi_certified is True
        total = tensor_from_op(rb).array + lam4.array
        assert np.allclose(total, tensor_from_op(op).array, atol=1e-13)

    def test_projector_idempotent(self):
        rng = np.random.default_rng(1)
        r = random_sym_operator(rng, 5)
        rb, _ = bianchi_split(r)
        _, lam4_again = bianchi_split(rb)
        assert lam4_again.norm_sq() == pytest.approx(0.0, abs=1e-20)

    def test_alternating_part_is_alternating(self):
        rng = np.random.default_rng(2)
        r = random_sym_operator(rng, 4)
        arr = alternation(tensor_from_op(r).array)
        assert np.allclose(arr, -np.transpose(arr, (1, 0, 2, 3)), atol=1e-14)
        assert np.allclose(arr, -np.transpose(arr, (0, 2, 1, 3)), atol=1e-14)

    def test_projector_matches_tensor_alternation(self):
        # the gather over i < j < k < l against the 24-permutation average:
        # both round differently, so they agree to a few ulp of the
        # largest entry (at most 2.5 seen over 200 operators per n)
        rng = np.random.default_rng(21)
        for n in range(3, 9):
            for _ in range(10):
                r = random_sym_operator(rng, n)
                rb, lam4 = bianchi_split(r)
                want = alternation(tensor_from_op(r).array)
                bound = 4 * np.finfo(float).eps * float(np.abs(r.mat).max())
                assert np.abs(lam4.array - want).max() <= bound
                assert np.abs(tensor_from_op(rb).array - (tensor_from_op(r).array - want)).max() <= bound
                assert rb.bianchi_certified is True

    def test_stacked_projection_and_certificates_match_single(self):
        from curvop.operators import _alternating_parts, _bianchi_certified

        rng = np.random.default_rng(22)
        for n in range(3, 8):
            ops = [random_sym_operator(rng, n) for _ in range(4)]
            mats = np.array([op.mat for op in ops])
            parts = _alternating_parts(mats, n)
            certified = _bianchi_certified(mats - parts, n)
            raw = _bianchi_certified(mats, n)
            for i, op in enumerate(ops):
                rb, lam4 = bianchi_split(op)
                assert (mats[i] - parts[i]).tobytes() == rb.mat.tobytes()
                assert tensor_from_op(CurvatureOperator(n, parts[i])).array.tobytes() == lam4.array.tobytes()
                assert bool(certified[i]) is rb.bianchi_certified is True
                assert bool(raw[i]) is op.bianchi_certified

    @pytest.mark.parametrize("n", range(4, 9))
    def test_certificate_matches_the_tensor_residual_at_the_threshold(self, n):
        # a Bianchi operator plus an alternating part scaled so that its
        # largest Bianchi sum is factor times the certificate's bound: the
        # sums on operator coordinates and the (0,4)-tensor's cyclic
        # residual decide alike on either side of the threshold
        from curvop.operators import _alternating_parts, _bianchi_certified, _bianchi_sums

        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            rb = random_bianchi_operator(rng, n).mat
            alt = _alternating_parts(random_sym_operator(rng, n).mat, n)
            bound = _IDENTITY_TOL * max(1.0, float(np.abs(rb).max()))
            unit = alt / float(np.abs(_bianchi_sums(alt, n)).max())
            for factor in (0.5, 0.999, 1.001, 2.0):
                mat = rb + factor * bound * unit
                holds = bool(_bianchi_certified(mat, n))
                assert holds is bool(_bianchi_holds(operators._tensors_from_ops(mat, n)))
                assert holds is (factor < 1.0)
                assert CurvatureOperator(n, mat).bianchi_certified is holds
                stack = np.array([rb, mat])
                if holds:
                    operators._decompose(stack, n)
                else:
                    with pytest.raises(ValueError, match="Bianchi"):
                        operators._decompose(stack, n)

    def test_action_certificate_is_read_from_the_result(self):
        # so(4) kills the volume form, the whole alternating part at n = 4,
        # so every L.R is Bianchi even when R is not; the input's caches
        # are filled first, so a result that took them over would read
        # False
        op = singer_thorpe_op((1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
        lam = SoElement(4, np.arange(1.0, 7.0))
        assert op.bianchi_certified is False
        out = act_on_operator(lam, op)
        assert out.bianchi_certified is True
        assert decompose(out).weyl.n == 4
        rm = tensor_from_op(op)
        assert (rm.pair_skew, rm.pair_symmetric, rm.bianchi) == (True, True, False)
        acted = so_act(lam, rm)
        assert (acted.pair_skew, acted.pair_symmetric, acted.bianchi) == (True, True, True)

    def test_dimension_three_is_automatically_bianchi(self):
        # no alternating 4-tensors exist on three coordinates, so every
        # symmetric operator certifies
        rng = np.random.default_rng(8)
        for _ in range(20):
            r = random_sym_operator(rng, 3)
            assert r.bianchi_certified is True


class TestRicciContract:
    def test_half_gg(self):
        for n in (3, 5):
            g = identity_sym2(n)
            op = op_from_tensor(CurvTensor(kulkarni_nomizu(g, g).array / 2.0))
            ric, scal = ricci(op)
            assert np.allclose(ric.mat, (n - 1) * np.eye(n), atol=1e-13)
            assert scal == pytest.approx(n * (n - 1))

    def test_sphere_product_blocks(self):
        op = sphere_product_op(2, 5)
        ric, scal = ricci(op)
        assert np.allclose(ric.mat, np.diag([1.0, 1.0, 0, 0, 0]), atol=1e-13)
        assert scal == pytest.approx(2.0)

    def test_alternating_part_has_zero_ricci(self):
        rng = np.random.default_rng(3)
        r = random_sym_operator(rng, 4)
        lam4 = bianchi_split(r)[1]
        ric = np.einsum("iaja->ij", lam4.array)
        assert np.abs(ric).max() < 1e-13


class TestDecompose:
    def test_half_gg_pure_scalar(self):
        g = identity_sym2(4)
        op = op_from_tensor(CurvTensor(kulkarni_nomizu(g, g).array / 2.0))
        dec = decompose(op)
        assert dec.scal == pytest.approx(12.0)
        assert dec.ric0.norm_sq() == pytest.approx(0.0, abs=1e-20)
        assert dec.weyl.norm_sq() == pytest.approx(0.0, abs=1e-20)

    def test_cp2_is_einstein_with_weyl(self):
        dec = decompose(cp2_op())
        assert dec.ric0.norm_sq() == pytest.approx(0.0, abs=1e-18)
        assert dec.weyl.norm_sq() > 1.0

    def test_sphere_product_reassembles(self):
        op = sphere_product_op(2, 4)
        dec = decompose(op)
        assert dec.ric0.norm_sq() > 0.1
        assert dec.weyl.norm_sq() > 0.01
        g = identity_sym2(4)
        back = (
            dec.scal / (2 * 3 * 4) * kulkarni_nomizu(g, g).array
            + kulkarni_nomizu(g, dec.ric0).array / 2.0
            + dec.weyl.array
        )
        assert np.allclose(back, tensor_from_op(op).array, atol=1e-13)

    def test_schouten_relation(self):
        rng = np.random.default_rng(4)
        rb = random_bianchi_operator(rng, 5)
        dec = decompose(rb)
        back = kulkarni_nomizu(dec.schouten, identity_sym2(5)).array + dec.weyl.array
        assert np.allclose(back, tensor_from_op(rb).array, atol=1e-12)

    def test_matches_pieces_from_one_tensor(self):
        # the decomposition reads the (0,4)-tensor once; its pieces are the
        # ones the Ricci contraction and Kulkarni-Nomizu products give
        rng = np.random.default_rng(23)
        for n in range(3, 9):
            rb = random_bianchi_operator(rng, n)
            dec = decompose(rb)
            ric, scal = ricci(rb)
            g = identity_sym2(n)
            ric0 = ric.traceless()
            weyl = (
                tensor_from_op(rb).array
                - scal / (2.0 * (n - 1) * n) * kulkarni_nomizu(g, g).array
                - kulkarni_nomizu(g, ric0).array / (n - 2.0)
            )
            schouten = -scal / (2.0 * (n - 1) * (n - 2)) * g.mat + ric.mat / (n - 2.0)
            assert dec.scal == scal
            assert dec.ric0.mat.tobytes() == ric0.mat.tobytes()
            assert dec.weyl.array.tobytes() == weyl.tobytes()
            assert dec.schouten.mat.tobytes() == Sym2(schouten).mat.tobytes()

    def test_returns_the_kn_its_weyl_tensor_subtracts(self):
        # callers bound the traceless Ricci part by the KN(g, ric0) the
        # Weyl step built, which must be the product's operator matrix, bit
        # for bit
        rng = np.random.default_rng(24)
        for n in range(3, 9):
            mats = bianchi_stack(rng, n, (3,))
            _, _, ric0, _, kn_ric0 = operators._decompose(mats, n)
            assert kn_ric0.shape == mats.shape
            assert kn_ric0.tobytes() == _kn(np.eye(n), ric0).tobytes()
            assert kn_ric0.tobytes() == operators._ops_from_tensors(dense_kn(np.eye(n), ric0), n).tobytes()
            public = [op_from_tensor(kulkarni_nomizu(identity_sym2(n), Sym2(m))).mat for m in ric0]
            assert kn_ric0.tobytes() == np.array(public).tobytes()

    def test_weyl_operator_is_the_gathered_dense_weyl_tensor(self):
        # the Weyl step on operator coordinates has the bits of the dense
        # rm - scal/(2(n-1)n) KN(g, g) - KN(g, ric0)/(n-2) at the wedge pairs
        rng = np.random.default_rng(25)
        for n in range(3, 9):
            mats = bianchi_stack(rng, n, (3,))
            rm = operators._tensors_from_ops(mats, n)
            scal, _, ric0, weyl, _ = operators._decompose(mats, n)
            scale = (scal / (2.0 * (n - 1) * n))[:, None, None, None, None]
            dense = rm - scale * dense_metric_square(n) - dense_kn(np.eye(n), ric0) / (n - 2.0)
            assert weyl.shape == mats.shape
            assert weyl.tobytes() == operators._ops_from_tensors(dense, n).tobytes()

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_the_dense_reference_bit_for_bit(self, n):
        # scal, ric, ric0, weyl and kn_ric0 on operator coordinates have the
        # bits of the dense decomposition: the Ricci sum adds its terms in
        # einsum's order, and the operator-coordinate KN(g, ric0) is the
        # dense product at the wedge pairs
        rng = np.random.default_rng(26 + n)
        for batch in ((), (5,), (2, 3)):
            mats = bianchi_stack(rng, n, batch)
            got = operators._decompose(mats, n)
            want = reference_decompose(operators._tensors_from_ops(mats, n), n)
            for mine, theirs in zip(got, want):
                assert np.shape(mine) == np.shape(theirs)
                assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes()

    def test_rejects_small_dimension_and_non_bianchi(self):
        with pytest.raises(ValueError):
            decompose(identity_operator(2))
        op = singer_thorpe_op((1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            decompose(op)


class TestSpectrum:
    def test_identity(self):
        s = spectrum(identity_operator(4))
        assert np.array_equal(s.eigenvalues, np.ones(6))
        assert np.array_equal(s.eigenvectors, np.eye(6))

    def test_cp2_eigenvalues(self):
        s = spectrum(cp2_op())
        assert np.allclose(s.eigenvalues, [0, 0, 2, 2, 2, 6], atol=1e-12)

    @pytest.mark.parametrize(
        "vals, vecs",
        [
            # a NaN hides the 0 below it from the order check
            ([1.0, 2.0, np.nan, 0.0, 3.0, 4.0], np.eye(6)),
            ([0.0, 1.0, 2.0, 3.0, 4.0, np.inf], np.eye(6)),
            ([-np.inf, 0.0, 1.0, 2.0, 3.0, 4.0], np.eye(6)),
            ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], np.where(np.eye(6) == 1.0, np.nan, 0.0)),
        ],
        ids=["nan-unsorted", "inf", "minus-inf", "nan-eigenvectors"],
    )
    def test_rejects_non_finite_input(self, vals, vecs):
        with pytest.raises(ValueError, match="must be finite"):
            Spectrum(vals, vecs)

    def test_sphere_product_multiplicities(self):
        s = spectrum(sphere_product_op(2, 5))
        assert np.allclose(s.eigenvalues, [0.0] * 9 + [1.0], atol=1e-13)

    def test_residual_and_orthogonality(self):
        rng = np.random.default_rng(5)
        for n in (4, 6, 8):
            r = random_sym_operator(rng, n)
            s = spectrum(r)
            scale = np.sqrt(r.norm_sq())
            res = np.abs(r.mat @ s.eigenvectors - s.eigenvectors * s.eigenvalues[None, :]).max()
            assert res <= 1e-10 * max(1.0, scale)
            orth = np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(r.N)).max()
            assert orth <= 1e-10

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(6)
        r = random_sym_operator(rng, 5)
        q, rr = np.linalg.qr(rng.normal(size=(r.N, r.N)))
        q = q * np.sign(np.diag(rr))
        s1 = spectrum(r)
        s2 = spectrum(CurvatureOperator(5, q.T @ r.mat @ q))
        assert np.allclose(s1.eigenvalues, s2.eigenvalues, atol=1e-9 * max(1, np.abs(s1.eigenvalues).max()))

    def test_batch_matches_single_bitwise(self):
        rng = np.random.default_rng(7)
        mats = []
        for _ in range(6):
            m = rng.normal(size=(10, 10))
            mats.append((m + m.T) / 2)
        vals, vecs = jacobi_eigh_batch(np.array(mats))
        for i, m in enumerate(mats):
            sv, sw = jacobi_eigh(m)
            assert np.array_equal(vals[i], sv)
            assert np.array_equal(vecs[i], sw)

    def test_batch_matches_single_bitwise_with_mixed_convergence(self):
        # rows that converge after different numbers of sweeps: the diagonal
        # and zero matrices never rotate, the turned sphere product is
        # degenerate with lowest sum exactly 0, the random ones need most
        rng = np.random.default_rng(12)
        w = wedge_isometry(random_orthogonal(rng, 8))
        mats = [sphere_product_op(3, 8).mat, np.zeros((28, 28)), w @ sphere_product_op(5, 8).mat @ w.T]
        for _ in range(3):
            m = rng.normal(size=(28, 28))
            mats.append((m + m.T) / 2)
        vals, vecs = jacobi_eigh_batch(np.array(mats))
        for i, m in enumerate(mats):
            sv, sw = jacobi_eigh(m)
            assert vals[i].tobytes() == sv.tobytes()
            assert vecs[i].tobytes() == sw.tobytes()

    def test_clustered_spectra_converge_in_few_sweeps(self, monkeypatch):
        # inside an eigenvalue cluster the rotation angles are rounding
        # noise; rotating such pairs spreads annihilated entries back in and
        # turned sphere products then needed up to 22 sweeps
        rng = np.random.default_rng(16)
        mats, exact = [], []
        for p in range(2, 7):
            w = wedge_isometry(random_orthogonal(rng, 8))
            op = sphere_product_op(p, 8).mat
            mats.append(w @ op @ w.T)
            exact.append(np.sort(np.diag(op)))
        q = random_orthogonal(rng, 28)
        three = np.repeat([-1.5, 0.5, 2.0], [9, 10, 9])
        mats.append((q * three) @ q.T)
        exact.append(three)
        monkeypatch.setattr(operators, "_JACOBI_SWEEPS", 11)
        vals, vecs = jacobi_eigh_batch(np.array(mats))
        for i, m in enumerate(mats):
            assert np.abs(vals[i] - exact[i]).max() <= 1e-12 * max(1.0, np.abs(exact[i]).max())
            sv, sw = jacobi_eigh(m)
            assert vals[i].tobytes() == sv.tobytes()
            assert vecs[i].tobytes() == sw.tobytes()

    @pytest.mark.parametrize("transpose", [False, True])
    def test_threshold_rule_reads_both_mirror_entries(self, transpose):
        # the row and column updates leave a matrix a few ulps asymmetric,
        # so a pair can sit at the threshold on one side of the diagonal and
        # just above it on the other; that pair must still rotate
        m = np.diag([1.0, 2.0, 3.0, 4.0])
        thresh = 1e-13 * np.sqrt(30.0)
        m[0, 1], m[1, 0] = thresh, thresh * (1.0 + 1e-4)
        vals, vecs = jacobi_eigh(m.T if transpose else m)
        assert np.abs(vals - [1.0, 2.0, 3.0, 4.0]).max() <= 1e-15
        assert np.abs(vecs.T @ vecs - np.eye(4)).max() <= 1e-15

    def test_power_of_two_scaling_is_exact(self):
        # squares of entries near 2**540 overflow and those of entries near
        # 2**-540 underflow; the spectrum must still scale with the matrix
        # bit for bit
        rng = np.random.default_rng(14)
        mats = [random_sym_operator(rng, n).mat for n in (4, 4, 4)]
        mats += [cp2_op().mat, singer_thorpe_op((-1.0, -1.0, 8.0, 2.0, 2.0, 2.0)).mat]
        mats = np.array(mats)
        vals, vecs = jacobi_eigh_batch(mats)
        for scale in (2.0 ** 540, 2.0 ** -540):
            scaled_vals, scaled_vecs = jacobi_eigh_batch(scale * mats)
            assert scaled_vals.tobytes() == (scale * vals).tobytes()
            assert scaled_vecs.tobytes() == vecs.tobytes()

    def test_entries_out_of_range_raise(self):
        rng = np.random.default_rng(15)
        m = random_sym_operator(rng, 4).mat
        m = m * (1.7e308 / np.abs(m).max())
        with pytest.raises(ValueError, match="float range"):
            jacobi_eigh(m)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="float range"):
                jacobi_eigh(np.diag([1.0, bad]))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_non_symmetric_input_raises_before_sweeping(self, transpose, monkeypatch):
        # rotations cannot remove a skew part: a pair whose mirror entries
        # differ by more than the stopping threshold is rejected up front,
        # not after every sweep has run
        m = np.diag([1.0, 2.0, 3.0, 4.0])
        thresh = 1e-13 * np.sqrt(30.0)
        m[0, 1], m[1, 0] = 0.5 * thresh, 2.0 * thresh
        m = m.T if transpose else m

        def sweep(size):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(operators, "_round_robin", sweep)
        with pytest.raises(ValueError, match="not symmetric"):
            jacobi_eigh(m)
        with pytest.raises(ValueError, match="not symmetric"):
            jacobi_eigh_batch(np.array([np.diag([1.0, 2.0, 3.0, 4.0]), m]))
        monkeypatch.undo()
        # a difference below the threshold is rounding and still converges
        m[0, 1], m[1, 0] = 0.5 * thresh, 0.9 * thresh
        vals, _ = jacobi_eigh(m)
        assert np.abs(vals - [1.0, 2.0, 3.0, 4.0]).max() <= 1e-15

    def test_round_robin_rounds_are_disjoint_and_cover_each_pair_once(self):
        for size in range(2, 30):
            rounds = _round_robin(size)
            assert len(rounds) == size - 1 + size % 2
            seen = []
            for pq, _ in rounds:
                p, q = np.split(pq, 2)
                assert p.size <= size // 2
                assert np.all(p < q)
                assert len(set(pq.tolist())) == pq.size
                seen.extend(zip(p.tolist(), q.tolist()))
            assert sorted(seen) == [(p, q) for p in range(size) for q in range(p + 1, size)]

    def test_too_few_sweeps_raise(self, monkeypatch):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(28, 28))
        monkeypatch.setattr(operators, "_JACOBI_SWEEPS", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            jacobi_eigh((m + m.T) / 2)

    @pytest.mark.parametrize("factor, converged", [(0.5, True), (2.0, False)])
    def test_convergence_threshold(self, factor, converged, monkeypatch):
        # with no sweeps allowed, a matrix is accepted as it stands exactly
        # when no off-diagonal entry exceeds 1e-13 times its Frobenius norm
        m = np.diag([1.0, 2.0, 3.0])
        m[0, 1] = m[1, 0] = factor * 1e-13 * np.sqrt(14.0)
        monkeypatch.setattr(operators, "_JACOBI_SWEEPS", 0)
        if converged:
            vals, vecs = jacobi_eigh(m)
            assert vals.tolist() == [1.0, 2.0, 3.0]
            assert np.array_equal(vecs, np.eye(3))
        else:
            with pytest.raises(RuntimeError, match="did not converge"):
                jacobi_eigh(m)

    def test_smallest_sizes(self):
        vals, vecs = jacobi_eigh(np.array([[2.5]]))
        assert vals.tolist() == [2.5]
        assert vecs.tolist() == [[1.0]]
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        vals, vecs = jacobi_eigh(m)
        assert np.allclose(vals, [1.0, 3.0], rtol=0.0, atol=1e-15)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, m, rtol=0.0, atol=1e-15)
        assert np.allclose(vecs.T @ vecs, np.eye(2), rtol=0.0, atol=1e-15)

    def test_zero_matrix(self):
        vals, vecs = jacobi_eigh(np.zeros((4, 4)))
        assert np.array_equal(vals, np.zeros(4))
        assert np.array_equal(vecs, np.eye(4))

    def test_against_independent_eigensolver(self):
        rng = np.random.default_rng(10)
        for n in (4, 6, 8):
            r = random_sym_operator(rng, n)
            vals, _ = jacobi_eigh(r.mat)
            scale = max(1.0, float(np.abs(vals).max()))
            assert np.abs(vals - np.linalg.eigvalsh(r.mat)).max() <= 1e-12 * scale


class TestKPositivity:
    def test_identity_sums(self):
        s = spectrum(identity_operator(4))
        assert s.lowest_sum(3) == pytest.approx(3.0)
        assert s.lowest_sum(3) > 0.0

    def test_cp2_boundary(self):
        s = spectrum(cp2_op())
        assert s.lowest_sum(3) == pytest.approx(2.0, abs=1e-12)
        assert s.lowest_sum(3) > 0.0
        assert not s.lowest_sum(2) > 0.0
        assert s.lowest_sum(2) >= 0.0

    def test_negative_term_operator_sums(self):
        op, _ = negative_2form_term_op(5, 1.0)
        s = spectrum(op)
        # brute-force oracle: the constructed eigenvalue list
        want = sorted([-2.0, -2.0] + [2.0] * 7 + [10.0])
        assert np.allclose(s.eigenvalues, want, atol=1e-12)
        assert s.lowest_sum(9) == pytest.approx(sum(want[:9]), abs=1e-12)
        assert s.lowest_sum(4) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range(self):
        s = spectrum(identity_operator(3))
        with pytest.raises(ValueError):
            s.lowest_sum(0)
        with pytest.raises(ValueError):
            s.lowest_sum(4)


class TestComplexSectional:
    def test_identity_positive(self):
        rng = np.random.default_rng(8)
        ident = identity_operator(4)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert complex_sectional(ident, z, w) > 0.0

    def test_real_pair_is_sectional_entry(self):
        rng = np.random.default_rng(9)
        r = random_sym_operator(rng, 4)
        e = np.eye(4)
        assert complex_sectional(r, e[:, 0], e[:, 2]) == pytest.approx(r.mat[1, 1])

    def test_cp2_isotropic_value(self):
        z = np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2.0)
        w = np.array([0.0, 0.0, 1.0, 1.0j]) / np.sqrt(2.0)
        got = complex_sectional(cp2_op(), z, w)
        assert got == pytest.approx(3.0, rel=1e-12)
        assert got >= 0.0

    def test_zero_wedge_rejected(self):
        with pytest.raises(ValueError):
            complex_sectional(identity_operator(3), np.ones(3), 2.0 * np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("which", ["z", "w"])
    def test_non_finite_vectors_rejected(self, bad, which):
        # a NaN or inf entry would otherwise make the value NaN
        vectors = {"z": np.array([1.0, 1.0, 0.0, 0.0], dtype=complex), "w": np.array([0.0, 0.0, 1.0, 1.0j])}
        vectors[which][0] = bad
        with pytest.raises(ValueError, match="vector entries must be finite"):
            complex_sectional(cp2_op(), vectors["z"], vectors["w"])
