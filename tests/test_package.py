"""The package root: public names resolve on first use to their home module's objects."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvop

PUBLIC = [
    "BettiVerdict", "BochnerVerdict", "CurvDecomposition", "CurvTensor", "CurvatureOperator",
    "HatTensor", "PForm", "PerturbedProfile", "ShootResult", "SoElement",
    "Spectrum", "Sym2", "TachibanaVerdict", "Tensor0k", "TensorKind", "WarpJet", "act_on_operator", "action", "ad_matrix", "alternation",
    "betti_bound", "betti_verdict", "bianchi_split", "bochner", "catalog", "complex_sectional",
    "cp2_op", "curvature_term", "decompose", "direct_term_check",
    "dwp_eigenvalue_list", "dwp_eigenvalues", "dwp_operator", "estimate_constant",
    "extremal_pform", "fourdim_einstein_term", "hat", "hat_norm_sq", "identity_operator",
    "identity_sym2", "inner", "integrate_warp_ode", "jacobi_eigh", "jacobi_eigh_batch",
    "kulkarni_nomizu", "lemma21_verdict", "negative_2form_term_op",
    "negative_sym2_term_op", "normal_h_term", "ode_rhs", "ode_shoot",
    "op_from_tensor", "operators", "permute", "perturbed_profile", "product_of_spheres_op",
    "ric_identity_closed_form", "ric_of", "round_jet", "scal_single_warped",
    "singer_thorpe_basis", "singer_thorpe_op", "so_act", "spectrum",
    "sphere_product_op", "tachibana_verdict", "tensor_from_op", "tensors", "trajectory_scal",
    "warped", "wedge_basis_form", "wedge_count", "wedge_element", "wedge_index", "wedge_pairs",
]
SUBMODULES = {"action", "bochner", "catalog", "operators", "tensors", "warped"}


def test_public_names_unchanged():
    assert sorted(curvop.__all__) == PUBLIC


def test_names_are_their_home_objects():
    for name in PUBLIC:
        value = getattr(curvop, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"curvop.{name}")
        else:
            assert value.__module__.startswith("curvop."), name
            assert getattr(sys.modules[value.__module__], name) is value, name
        # the first lookup binds the name, so the next one is a plain read
        assert vars(curvop)[name] is value


def test_dir_lists_every_name():
    assert set(PUBLIC) <= set(dir(curvop))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        curvop.no_such_name
    # names outside the table still import as submodules
    from curvop import verify

    assert verify is importlib.import_module("curvop.verify")


def test_star_import_binds_every_name():
    code = (
        "from curvop import *\n"
        "import json as _json\n"
        "print(_json.dumps(sorted(k for k in dir() if not k.startswith('_'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(curvop.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == PUBLIC
