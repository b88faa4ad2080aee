"""Integer parameters: one rule, tensors._integer, refuses what is not an
integer instead of truncating it, and keeps numpy integers."""

import re
from pathlib import Path

import numpy as np
import pytest

import curvop
from curvop import verify
from curvop.action import wedge_element
from curvop.bochner import TensorKind, _weight_norms, betti_bound, betti_verdict, tachibana_verdict
from curvop.catalog import (
    cp2_op,
    extremal_pform,
    negative_2form_term_op,
    negative_sym2_term_op,
    product_of_spheres_op,
    sphere_product_op,
)
from curvop.operators import CurvatureOperator, spectrum
from curvop.tensors import (
    PForm,
    Tensor0k,
    _integer,
    check_dimension,
    permute,
    wedge_basis_form,
    wedge_count,
    wedge_index,
    wedge_pairs,
)
from curvop.warped import dwp_eigenvalues, round_jet, scal_single_warped

CP2 = spectrum(cp2_op())

# (parameter name in the message, call taking the value, an integer it accepts)
SITES = {
    "check_dimension": ("dimension", check_dimension, 3),
    "CurvatureOperator": ("dimension", lambda v: CurvatureOperator(v, np.eye(3)), 3),
    "PForm": ("form degree", lambda v: PForm(4, v, np.ones(6)), 2),
    "PForm.value": ("index", lambda v: PForm(4, 2, np.ones(6)).value((0, v)), 2),
    "wedge_count": ("dimension", wedge_count, 4),
    "wedge_pairs": ("dimension", wedge_pairs, 3),
    "wedge_index-n": ("dimension", lambda v: wedge_index(v, 0, 1), 4),
    "wedge_index-i": ("index", lambda v: wedge_index(4, v, 3), 2),
    "wedge_element-n": ("dimension", lambda v: wedge_element(v, 0, 1), 4),
    "wedge_element-j": ("index", lambda v: wedge_element(4, 0, v), 2),
    "wedge_basis_form-n": ("dimension", lambda v: wedge_basis_form(v, (0, 1)), 4),
    "wedge_basis_form-index": ("index", lambda v: wedge_basis_form(4, (0, v)), 2),
    "permute": ("slot", lambda v: permute(Tensor0k(np.zeros((2, 2))), (v, 0)), 1),
    "TensorKind.generic": ("tensor order", TensorKind.generic, 2),
    "TensorKind.pform": ("form degree", TensorKind.pform, 2),
    "_weight_norms-n": ("dimension", lambda v: _weight_norms(TensorKind.sym2(), v), 4),
    "_weight_norms-p": ("form degree", lambda v: _weight_norms(TensorKind("pform", p=v), 4), 1),
    "betti_verdict-n": ("dimension", lambda v: betti_verdict(CP2, v, 1), 4),
    "betti_verdict-p": ("p", lambda v: betti_verdict(CP2, 4, v), 1),
    "betti_bound-n": ("dimension", lambda v: betti_bound(v, 1, -1.0, 1.0, 1.0), 4),
    "betti_bound-p": ("p", lambda v: betti_bound(4, v, -1.0, 1.0, 1.0), 1),
    "tachibana_verdict": ("dimension", lambda v: tachibana_verdict(CP2, v), 4),
    "sphere_product_op-p": ("sphere dimension", lambda v: sphere_product_op(v, 4), 2),
    "sphere_product_op-n": ("dimension", lambda v: sphere_product_op(2, v), 4),
    "product_of_spheres_op-k": ("k", lambda v: product_of_spheres_op(v, 4), 2),
    "product_of_spheres_op-n": ("dimension", lambda v: product_of_spheres_op(1, v), 4),
    "extremal_pform": ("form degree", extremal_pform, 2),
    "negative_2form_term_op": ("dimension", lambda v: negative_2form_term_op(v, 1.0), 4),
    "negative_sym2_term_op": ("dimension", lambda v: negative_sym2_term_op(v, 1.0, -1.0), 3),
    "lowest_sum": ("k", CP2.lowest_sum, 3),
    "warped-p": ("p", lambda v: dwp_eigenvalues(v, 2, round_jet(1.0)), 2),
    "warped-q": ("q", lambda v: dwp_eigenvalues(2, v, round_jet(1.0)), 2),
    "warped-n": ("dimension", lambda v: scal_single_warped(v, 1.0, 0.0, 0.0), 4),
    "_trial_rng-seed": ("seed", lambda v: verify._trial_rng(v, 0, 0), 42),
    "_trial_rng-suite": ("suite id", lambda v: verify._trial_rng(42, v, 0), 3),
    "_trial_rng-trial": ("trial index", lambda v: verify._trial_rng(42, 0, v), 5),
    "check_selection": ("trials", lambda v: verify.check_selection(["prop-1.1"], v), 3),
}


@pytest.mark.parametrize("value", [2.5, "3", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("site", SITES)
def test_non_integers_are_refused_by_name(site, value):
    what, call, _ = SITES[site]
    with pytest.raises(ValueError, match=f"^{what} must be an integer, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("site", SITES)
def test_numpy_integers_pass(site):
    _, call, good = SITES[site]
    call(np.int64(good))


def test_truncation_probes_raise():
    # truncated, each of these would run a neighbouring case: p = 1, S^2 x R^2, n = 3, n = 3
    for call in (lambda: betti_verdict(CP2, 4, 1.9), lambda: sphere_product_op(2.7, 4),
                 lambda: CurvatureOperator(3.9, np.eye(3)), lambda: check_dimension("3")):
        with pytest.raises(ValueError, match="must be an integer"):
            call()


def test_integer_gives_a_python_int_and_the_range_messages():
    got = _integer(np.int64(4), "n", 1, 8)
    assert got == 4 and type(got) is int
    assert _integer(-7, "n") == -7
    with pytest.raises(ValueError, match=r"^n must be at least 2, got 1$"):
        _integer(1, "n", 2)
    with pytest.raises(ValueError, match=r"^n must be in 1\.\.3, got 4$"):
        _integer(4, "n", 1, 3)
    with pytest.raises(ValueError, match=r"^n must be in 1\.\.3, got 0$"):
        _integer(np.int8(0), "n", 1, 3)
    with pytest.raises(ValueError, match=r"^n must be an integer, got "):
        _integer(np.bool_(True), "n")


def test_check_dimension_takes_a_floor():
    assert check_dimension(4, 4) == 4
    with pytest.raises(ValueError, match="^dimension must be at least 4, got 3$"):
        check_dimension(3, 4)
    with pytest.raises(ValueError, match="^dimension 9 exceeds the cap 8$"):
        check_dimension(9, 4)


def test_wedge_helpers_check_their_dimension():
    # 3.0 hashes like 3, so the pairs cached for n = 3 must not answer it,
    # and the cap on n holds for an index as for a constructor
    wedge_pairs(3)
    with pytest.raises(ValueError, match=r"^dimension must be an integer, got 3\.0$"):
        wedge_pairs(3.0)
    with pytest.raises(ValueError, match="^dimension 9 exceeds the cap 8$"):
        wedge_index(9, 0, 1)


def test_no_parameter_is_converted_with_int():
    # int() truncates 2.5 and parses "3"; the calls left convert counts,
    # draws and an exit code, never a caller's parameter
    allowed = re.compile(r"int\((rng\.integers|np\.count_nonzero|round\(|exc\.code)")
    package = Path(curvop.__file__).parent
    left = [(path.name, line.strip()) for path in sorted(package.glob("*.py"))
            for line in path.read_text().splitlines()
            if re.search(r"(?<![\w.])int\(", line) and not allowed.search(line)]
    assert left == []
