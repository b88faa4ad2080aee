"""Tensor layer: norms, permutations, contractions, KN products, forms."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from curvop import (
    CurvTensor,
    PForm,
    Sym2,
    Tensor0k,
    contract,
    identity_sym2,
    inner,
    kulkarni_nomizu,
    permute,
    wedge_basis_form,
    wedge_count,
    wedge_index,
    wedge_pairs,
)
from curvop.operators import CurvatureOperator
from curvop.tensors import (
    _dense_scatter,
    _kn,
    _metric_kn,
    _symmetric_part,
    _symmetrized,
    check_dimension,
)


def independent_gg(n):
    """(g*g)_{ijkl} = 2(d_ik d_jl - d_il d_jk), built without the KN code."""
    eye = np.eye(n)
    return 2.0 * (
        np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    )


def reference_dense_scatter(n, p):
    """_dense_scatter as the per-permutation loop built it, with the signs
    counted inversion by inversion."""
    tuples = list(itertools.combinations(range(n), p))
    perms = list(itertools.permutations(range(p)))
    flat = np.empty((len(perms), len(tuples)), dtype=np.intp)
    signs = np.empty(len(perms))
    for s, perm in enumerate(perms):
        sign = 1
        for i in range(p):
            for j in range(i + 1, p):
                if perm[i] > perm[j]:
                    sign = -sign
        signs[s] = sign
        for c, idx in enumerate(tuples):
            pos = 0
            for d in range(p):
                pos = pos * n + idx[perm[d]]
            flat[s, c] = pos
    return flat, signs


class TestNorms:
    def test_metric_norm(self):
        assert identity_sym2(3).norm_sq() == 3.0

    def test_single_wedge_form(self):
        assert wedge_basis_form(4, (0, 1)).norm_sq() == 1.0

    def test_gg_norm(self):
        g = identity_sym2(3)
        assert kulkarni_nomizu(g, g).norm_sq() == pytest.approx(48.0, rel=1e-14)

    def test_gh_norm_diag(self):
        g = identity_sym2(3)
        h = Sym2(np.diag([1.0, -1.0, 0.0]))
        assert kulkarni_nomizu(g, h).norm_sq() == pytest.approx(8.0, rel=1e-14)

    def test_gh_norm_formula_random(self):
        rng = np.random.default_rng(11)
        for n in range(3, 9):
            g = identity_sym2(n)
            for _ in range(50):
                a = rng.normal(size=(n, n))
                h = Sym2((a + a.T) / 2)
                want = 4 * (n - 2) * h.norm_sq() + 4 * h.trace() ** 2
                assert kulkarni_nomizu(g, h).norm_sq() == pytest.approx(want, rel=1e-10)


class TestPermute:
    def test_identity(self):
        t = Tensor0k(np.arange(8.0).reshape(2, 2, 2))
        assert np.array_equal(permute(t, (0, 1, 2)).array, t.array)

    def test_symmetric_fixed(self):
        h = Sym2(np.array([[1.0, 2.0], [2.0, 5.0]])).to_tensor()
        assert np.array_equal(permute(h, (1, 0)).array, h.array)

    def test_two_form_flips(self):
        w = wedge_basis_form(3, (0, 1)).to_tensor()
        assert np.array_equal(permute(w, (1, 0)).array, -w.array)

    def test_composition_semantics(self):
        rng = np.random.default_rng(0)
        t = Tensor0k(rng.normal(size=(3, 3, 3)))
        sigma = (2, 0, 1)
        direct = permute(t, sigma)
        for idx in ((0, 1, 2), (2, 2, 1), (1, 0, 2)):
            want = t.array[tuple(idx[s] for s in sigma)]
            assert direct.array[idx] == want

    def test_rejects_bad_sigma(self):
        t = Tensor0k(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            permute(t, (0, 0))
        with pytest.raises(ValueError):
            permute(t, (0, 1, 2))


class TestContract:
    def test_trace_of_sym2(self):
        h = Sym2(np.diag([2.0, 3.0, 4.0]))
        assert contract(h.to_tensor(), 0, 1) == pytest.approx(9.0)

    def test_two_form_contracts_to_zero(self):
        w = wedge_basis_form(4, (1, 3)).to_tensor()
        assert contract(w, 0, 1) == 0.0

    def test_gg_contraction(self):
        # slots 0 and 2 of the metric KN square give 2(n-1) g
        for n in (3, 4, 5):
            gg = Tensor0k(independent_gg(n))
            got = contract(gg, 0, 2)
            assert np.allclose(got.array, 2 * (n - 1) * np.eye(n), atol=1e-14)

    def test_matches_kn_route(self):
        g = identity_sym2(4)
        via_kn = kulkarni_nomizu(g, g).array
        assert np.array_equal(via_kn, independent_gg(4))

    def test_rejects_bad_slots(self):
        t = Tensor0k(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            contract(t, 1, 1)
        with pytest.raises(ValueError):
            contract(t, 0, 3)


class TestKulkarniNomizu:
    def test_entry_value(self):
        for n in (3, 5):
            g = identity_sym2(n)
            gg = kulkarni_nomizu(g, g)
            assert gg.array[0, 1, 0, 1] == 2.0

    def test_curvature_symmetries(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        prod = kulkarni_nomizu(Sym2((a + a.T) / 2), Sym2((b + b.T) / 2))
        assert prod.pair_skew and prod.pair_symmetric and prod.bianchi

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kulkarni_nomizu(identity_sym2(3), identity_sym2(4))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("batch", [(), (1,), (8,)])
    def test_outer_product_matches_einsum_definition(self, n, batch):
        # the definition term by term; the identity factor makes -0.0
        # products, whose sign the four einsums turn to +0.0
        def four_einsums(a, b):
            return (
                np.einsum("...ik,...jl->...ijkl", a, b)
                - np.einsum("...il,...jk->...ijkl", a, b)
                + np.einsum("...jl,...ik->...ijkl", a, b)
                - np.einsum("...jk,...il->...ijkl", a, b)
            )

        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(2, *batch, n, n))
        a, b = a + a.swapaxes(-1, -2), b + b.swapaxes(-1, -2)
        for x, y in ((a, b), (np.eye(n), b), (a, np.eye(n)), (np.eye(n), np.eye(n))):
            got, want = _kn(x, y), four_einsums(x, y)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_metric_square_is_one_frozen_constant(self, n):
        gg = _metric_kn(n)
        assert gg is _metric_kn(n)
        assert not gg.flags.writeable
        assert gg.tobytes() == _kn(np.eye(n), np.eye(n)).tobytes()


class TestPForm:
    def test_value_with_sign(self):
        w = wedge_basis_form(4, (0, 2))
        assert w.value((0, 2)) == 1.0
        assert w.value((2, 0)) == -1.0
        assert w.value((1, 1)) == 0.0

    def test_value_matches_dense_entries(self):
        rng = np.random.default_rng(5)
        for p in range(1, 5):
            w = PForm(4, p, rng.normal(size=math.comb(4, p)))
            dense = w.to_tensor().array
            for idx in itertools.product(range(4), repeat=p):
                assert w.value(idx) == dense[idx]

    @pytest.mark.parametrize("idx", [(0, 9), (-1, 0), (4, 1)])
    def test_value_rejects_indices_out_of_range(self, idx):
        with pytest.raises(ValueError, match=r"indices must be integers in 0\.\.3"):
            wedge_basis_form(4, (0, 2)).value(idx)

    def test_dense_scatter_matches_per_permutation_loop(self):
        for n in range(1, 7):
            for p in range(1, n + 1):
                flat, signs = _dense_scatter(n, p)
                want_flat, want_signs = reference_dense_scatter(n, p)
                assert flat.dtype == want_flat.dtype and flat.shape == want_flat.shape
                assert flat.tobytes() == want_flat.tobytes()
                assert signs.tobytes() == want_signs.tobytes()

    def test_from_tensor_allocates_no_second_dense_array(self):
        # the alternation check reads the gathered entries and a boolean
        # mask off the scatter, never a rebuilt dense form
        dense = PForm(7, 7, [3.0]).to_tensor()
        PForm.from_tensor(dense)  # fill the scatter cache outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            back = PForm.from_tensor(dense)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.comps.tolist() == [3.0]
        assert peak - base <= 0.25 * dense.array.nbytes

    def test_dense_round_trip_stays_near_the_dense_array(self):
        # to_tensor hands its fresh array to Tensor0k uncopied, and norm_sq
        # and the alternation check build nothing as large again
        w = PForm(7, 7, [3.0])
        PForm.from_tensor(w.to_tensor())  # fill the scatter cache outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dense = w.to_tensor()
            norm = dense.norm_sq()
            back = PForm.from_tensor(dense)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norm == math.factorial(7) * 9.0
        assert back.comps.tolist() == [3.0]
        assert not dense.array.flags.writeable
        assert peak - base <= 1.3 * dense.array.nbytes

    def test_constructor_copies_what_it_is_given(self):
        values = np.zeros((3, 3))
        t = Tensor0k(values)
        values[0, 0] = 1.0
        assert values.flags.writeable and t.array[0, 0] == 0.0
        assert not t.array.flags.writeable

    def test_dense_roundtrip_scales_by_factorial(self):
        rng = np.random.default_rng(2)
        for n, p in ((4, 2), (5, 3), (6, 4)):
            w = PForm(n, p, rng.normal(size=math.comb(n, p)))
            dense = w.to_tensor()
            assert dense.norm_sq() == pytest.approx(math.factorial(p) * w.norm_sq(), rel=1e-12)
            back = PForm.from_tensor(dense)
            assert np.allclose(back.comps, w.comps, atol=1e-14)

    def test_from_tensor_rejects_non_alternating(self):
        with pytest.raises(ValueError):
            PForm.from_tensor(Tensor0k(np.ones((3, 3))))

    @pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
    def test_from_tensor_alternation_threshold(self, factor, accepted):
        # alternating to 1e-12 times max(1, largest entry) is alternating
        dense = np.array(wedge_basis_form(3, (0, 1)).to_tensor().array)
        dense[1, 0] += factor * 1e-12
        if accepted:
            assert PForm.from_tensor(Tensor0k(dense)).comps.tolist() == [1.0, 0.0, 0.0]
        else:
            with pytest.raises(ValueError, match="not alternating"):
                PForm.from_tensor(Tensor0k(dense))

    def test_from_tensor_rejects_order_above_dimension(self):
        with pytest.raises(ValueError, match=r"form degree must be in 1\.\.2, got 9"):
            PForm.from_tensor(Tensor0k(np.zeros((2,) * 9)))

    def test_wedge_basis_count_and_orthogonality(self):
        forms = [wedge_basis_form(4, idx) for idx in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
        assert len(forms) == 6
        for i, a in enumerate(forms):
            for j, b in enumerate(forms):
                assert inner(a, b) == (1.0 if i == j else 0.0)

    def test_wedge_basis_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            wedge_basis_form(4, (2, 1))
        with pytest.raises(ValueError):
            wedge_basis_form(4, (0, 4))
        with pytest.raises(ValueError):
            wedge_basis_form(4, ())


class TestSpaceAndGuards:
    def test_wedge_indexing(self):
        assert wedge_count(4) == 6
        assert wedge_pairs(3) == ((0, 1), (0, 2), (1, 2))
        assert wedge_index(4, 1, 3) == 4
        with pytest.raises(ValueError):
            wedge_index(4, 3, 1)

    def test_space_validation(self):
        assert check_dimension(4) == 4
        with pytest.raises(ValueError):
            check_dimension(1)

    def test_dimension_cap(self):
        Tensor0k(np.zeros((8, 8)))
        with pytest.raises(ValueError, match="exceeds the cap 8"):
            Tensor0k(np.zeros((9, 9)))

    def test_sym2_requires_symmetry(self):
        with pytest.raises(ValueError):
            Sym2(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sym2_exact_symmetry_after_construction(self):
        m = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        h = Sym2(m)
        assert np.array_equal(h.mat, h.mat.T)

    def test_stacked_symmetry_check_matches_constructors(self):
        # the batched action checks stacked results with _symmetric_part and
        # the constructors check one matrix with it: a stacked row takes the
        # decision and gets the bits of the single matrix, at 1e-9 relative
        rng = np.random.default_rng(24)
        for scale in (0.5, 1.0, 1e3):
            for gap in (0.9e-9, 1.1e-9):
                a = scale * rng.normal(size=(3, 3))
                m = (a + a.T) / 2
                m[0, 1] += gap * max(1.0, float(np.abs(m).max()))
                mats = np.stack([(m + m.T) / 2, m])
                for build, what in ((Sym2, "matrix"), (lambda m: CurvatureOperator(3, m), "operator")):
                    try:
                        want = build(m).mat
                    except ValueError:
                        with pytest.raises(ValueError, match="not symmetric"):
                            _symmetric_part(mats, what)
                        assert gap > 1e-9
                    else:
                        assert gap < 1e-9
                        got = _symmetric_part(mats, what)
                        assert got[1].tobytes() == want.tobytes() == _symmetrized(m).tobytes()

    def test_symmetric_part_rejects_entries_it_would_overflow(self):
        # m + m^T overflowed to inf on finite entries near the float maximum
        huge = np.diag([1.7e308] * 6)
        huge[0, 1] = huge[1, 0] = 1e308
        for build in (Sym2, lambda m: CurvatureOperator(4, m)):
            for m in (huge, -huge):
                with pytest.raises(ValueError, match="below 2\\*\\*1023"):
                    build(m)
        # the largest entries still allowed sum to the largest float
        top = np.nextafter(2.0 ** 1023, 0.0)
        m = np.array([[top, -top, 0.0], [-top, 1.0, 2.0], [0.0, 2.0, -top]])
        for build in (Sym2, lambda m: CurvatureOperator(3, m)):
            assert build(m).mat.tobytes() == m.tobytes()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor0k(np.array([np.nan, 0.0]))

    def test_immutability(self):
        t = Tensor0k(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            t.array[0, 0] = 1.0


class TestCurvTensorFlags:
    def test_flags_on_kn_product(self):
        gg = kulkarni_nomizu(identity_sym2(3), identity_sym2(3))
        assert gg.pair_skew and gg.pair_symmetric and gg.bianchi

    def test_flags_reject_garbage(self):
        t = CurvTensor(np.arange(16.0).reshape(2, 2, 2, 2))
        assert not t.pair_skew

    def test_traceless_identities(self):
        rng = np.random.default_rng(9)
        for n in (3, 5, 8):
            a = rng.normal(size=(n, n))
            h = Sym2((a + a.T) / 2)
            h0 = h.traceless()
            assert h0.trace() == pytest.approx(0.0, abs=1e-12)
            assert h0.norm_sq() == pytest.approx(h.norm_sq() - h.trace() ** 2 / n, rel=1e-12)
