"""Tensor layer: norms, permutations, contractions, KN products, forms."""

import ast
import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from curvop import (
    CurvTensor,
    PForm,
    SoElement,
    Spectrum,
    Sym2,
    Tensor0k,
    cp2_op,
    identity_sym2,
    jacobi_eigh,
    jacobi_eigh_batch,
    inner,
    kulkarni_nomizu,
    normal_h_term,
    permute,
    trajectory_scal,
    wedge_basis_form,
    wedge_count,
    wedge_index,
    wedge_pairs,
)
from curvop import tensors
from curvop.operators import CurvatureOperator
from curvop.tensors import (
    _dense_scatter,
    _kn,
    _ops_from_tensors,
    _rebuild,
    _scale,
    _symmetric_part,
    _symmetrized,
    _tensors_from_ops,
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

    def test_inner_with_itself_is_norm_sq(self):
        rng = np.random.default_rng(12)
        n = 5
        a, b = rng.normal(size=(n, n)), rng.normal(size=(wedge_count(n),) * 2)
        kinds = [
            Tensor0k(rng.normal(size=(n,) * 3)),
            Sym2(a + a.T),
            PForm(n, 2, rng.normal(size=wedge_count(n))),
            CurvTensor(rng.normal(size=(n,) * 4)),
            CurvatureOperator(n, b + b.T),
        ]
        for t in kinds:
            assert inner(t, t) == t.norm_sq(), type(t).__name__


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


class TestKulkarniNomizu:
    def test_matches_kn_route(self):
        g = identity_sym2(4)
        via_kn = kulkarni_nomizu(g, g).array
        assert np.array_equal(via_kn, independent_gg(4))

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
        # the definition term by term, gathered at the wedge pairs, has the
        # bits of the product on operator coordinates; the identity factor
        # makes -0.0 products, whose sign the four einsums turn to +0.0.
        # Spread back, the product is exactly pair-skew, where the four
        # einsums leave mirrored entries a few ulps from each other's
        # negatives
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
            assert got.shape == want.shape[:-4] + (wedge_count(n),) * 2
            assert got.tobytes() == _ops_from_tensors(want, n).tobytes()
            dense = _tensors_from_ops(got, n)
            assert dense.shape == want.shape
            assert np.array_equal(dense, -dense.swapaxes(-4, -3))
            assert np.array_equal(dense, -dense.swapaxes(-2, -1))
            ulps = 8 * np.finfo(float).eps * float(np.abs(x).max() * np.abs(y).max())
            assert np.abs(dense - want).max() <= ulps

    @pytest.mark.parametrize("n", range(2, 9))
    def test_metric_square_is_one_frozen_constant(self, n):
        # KN(g, g) on operator coordinates is one constant, exactly 2I with
        # every zero +0.0, at every n: _decompose's scalar step subtracts
        # 2I in its place
        gg = _kn(np.eye(n), np.eye(n))
        assert gg.tobytes() == (2.0 * np.eye(wedge_count(n))).tobytes()


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

    def test_from_tensor_reads_the_8_form_a_leading_index_at_a_time(self):
        # the entries off the scatter are read one leading index at a time,
        # so at n = p = 8 the check adds a few MB to the 134 MB dense form,
        # where a mask as large as the form took 17.7 MB
        dense = PForm(8, 8, [3.0]).to_tensor()
        PForm.from_tensor(dense)  # fill the scatter cache outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            back = PForm.from_tensor(dense)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.comps.tolist() == [3.0]
        assert peak - base <= 5 * 10 ** 6
        del dense
        # an entry off the scatter, with a repeated index, in the first, a
        # middle and the last leading slice
        for idx in ((0,) * 8, (3, 0, 1, 2, 4, 5, 6, 3), (7,) * 8):
            values = np.zeros((8,) * 8)
            values[idx] = 1e-9
            with pytest.raises(ValueError, match="not alternating"):
                PForm.from_tensor(_rebuild(Tensor0k, n=8, k=8, array=values))

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


class TestScale:
    """tensors._scale, the one floor under every relative tolerance:
    max(1, the largest |value| among its arguments), elementwise."""

    def test_below_unit_magnitudes_give_one(self):
        for value in (0.0, -0.0, 5e-324, 1e-13, 0.5, -0.999, 1.0):
            assert _scale(value) == 1.0
        assert _scale(1e-13, -0.5, 0.25) == 1.0

    def test_the_largest_magnitude_wins(self):
        assert _scale(2.5) == 2.5
        assert _scale(-3.0) == 3.0
        assert _scale(0.5, -7.0, 4.0) == 7.0
        assert _scale(-1e308, 5e307) == 1e308

    def test_stacks_are_elementwise(self):
        lhs = np.array([[0.25, -4.0], [3.0, 1e-20]])
        rhs = np.array([[-2.0, 0.5], [-5.0, 0.0]])
        assert _scale(lhs, rhs).tolist() == [[2.0, 4.0], [5.0, 1.0]]
        assert _scale(np.array([0.5, -8.0, 2.0])).tolist() == [1.0, 8.0, 2.0]
        assert _scale(np.array([0.5, -8.0]), 3.0).tolist() == [3.0, 8.0]

    def test_no_module_floors_a_magnitude_outside_scale(self):
        # a change to the floor (ROADMAP item 15) goes to _scale alone
        floor = re.compile(r"max(imum)?\(1\.0,")
        source = Path(tensors.__file__)
        scale = next(node for node in ast.parse(source.read_text()).body
                     if isinstance(node, ast.FunctionDef) and node.name == "_scale")
        left = [(path.name, line.strip()) for path in sorted(source.parent.glob("*.py"))
                for number, line in enumerate(path.read_text().splitlines(), 1)
                if floor.search(line) and not (path == source and scale.lineno <= number <= scale.end_lineno)]
        assert left == []


def _with_first_leaf(nested, value):
    """A nested list with its first leaf replaced by value."""
    if isinstance(nested, list):
        return [_with_first_leaf(nested[0], value)] + nested[1:]
    return value


class TestRealArrays:
    """Every array parameter of the public API takes one rule,
    tensors._real_array: _real's rule entry by entry.  A bool, str,
    Fraction, complex or 0-d array entry is refused by name, where numpy
    read True as 1.0 and "2" as 2.0 and dropped an imaginary part, and a
    non-finite entry keeps its "must be finite" message."""

    SYM = [[2, 1, 0], [1, 3, -1], [0, -1, 1]]

    # (input name in the message, call taking the array and returning what
    # it built, an integer-valued array it accepts)
    SITES = {
        "SoElement": ("so(n) coordinates", lambda v: SoElement(3, v).comps, [1, -2, 3]),
        "SoElement.from_matrix": ("matrix entries", lambda v: SoElement.from_matrix(v).comps,
                                  [[0, 1, -2], [-1, 0, 3], [2, -3, 0]]),
        "SoElement.from_vectors-x": ("vector entries", lambda v: SoElement.from_vectors(v, [0, 1, 0]).comps, [1, 0, 2]),
        "SoElement.from_vectors-y": ("vector entries", lambda v: SoElement.from_vectors([1, 0, 2], v).comps, [0, 1, 0]),
        "Tensor0k": ("tensor components", lambda v: Tensor0k(v).array, [[1, -2], [3, 4]]),
        "Sym2": ("matrix entries", lambda v: Sym2(v).mat, SYM),
        "PForm": ("form components", lambda v: PForm(3, 1, v).comps, [1, 2, 3]),
        "CurvTensor": ("tensor components", lambda v: CurvTensor(v).array, np.arange(16).reshape(2, 2, 2, 2) - 8),
        "CurvatureOperator": ("operator entries", lambda v: CurvatureOperator(3, v).mat, SYM),
        "Spectrum-eigenvalues": ("eigenvalues", lambda v: Spectrum(v, np.eye(3)).eigenvalues, [1, 2, 3]),
        "Spectrum-eigenvectors": ("eigenvectors", lambda v: Spectrum([1, 2, 3], v).eigenvectors, np.eye(3, dtype=int)),
        "jacobi_eigh_batch": ("matrix entries", jacobi_eigh_batch, [SYM, np.diag([1, 0, -1])]),
        "jacobi_eigh": ("matrix entries", jacobi_eigh, SYM),
        "normal_h_term": ("matrix entries", lambda v: normal_h_term(cp2_op(), v), np.diag([-1, 0, 0, 1])),
        "trajectory_scal-x": ("x", lambda v: trajectory_scal(4, v, [0, 1]), [1, 2]),
        "trajectory_scal-y": ("y", lambda v: trajectory_scal(4, [1, 2], v), [0, 1]),
    }

    BAD = {
        "bool": lambda good: good.astype(bool),
        "str": lambda good: good.astype(str),
        "Fraction": lambda good: np.array([Fraction(int(x)) for x in good.flat], dtype=object).reshape(good.shape),
        "complex": lambda good: good.astype(complex),
        "bool-in-list": lambda good: _with_first_leaf(good.tolist(), True),
        "0-d-array-in-list": lambda good: _with_first_leaf(good.tolist(), np.array(True)),
    }

    @staticmethod
    def called(call, value):
        """call(value) with every warning an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return call(value)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("site", SITES)
    def test_non_numbers_are_refused_by_name(self, site, bad):
        what, call, good = self.SITES[site]
        with pytest.raises(ValueError, match=f"^{re.escape(what)} must be a real number, got "):
            self.called(call, self.BAD[bad](np.array(good)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("site", SITES)
    def test_non_finite_entries_are_refused(self, site, value):
        what, call, good = self.SITES[site]
        bad = np.array(good, dtype=float)
        bad.flat[0] = value
        for form in (bad, bad.tolist()):
            with pytest.raises(ValueError, match=f"^{re.escape(what)} must be finite$"):
                self.called(call, form)

    @pytest.mark.parametrize("site", SITES)
    def test_numbers_build_the_same_bytes(self, site):
        # float arrays build what they always built; int and float lists
        # and int arrays build it too
        _, call, good = self.SITES[site]
        good = np.array(good)
        forms = [good.astype(float), good.astype(float).tolist(), good, good.tolist(), good.astype(np.int32)]
        built = []
        for form in forms:
            out = self.called(call, form)
            built.append(b"".join(np.asarray(part, dtype=float).tobytes() for part in (out if isinstance(out, tuple) else (out,))))
        assert all(b == built[0] for b in built)
