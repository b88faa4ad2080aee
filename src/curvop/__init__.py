"""Exact curvature-operator algebra on small Euclidean spaces.

Dense tensors under the so(n) action, hat tensors and curvature terms,
operator spectra with eigenvalue-sum positivity verdicts, an exact catalog
of operators and sharp pairs, warped-product spectra, and a shooting
integrator, all behind a deterministic verification CLI.

Public names resolve on first use (PEP 562): ``import curvop`` loads no
submodule, and ``curvop.X`` imports the module that defines X, then binds X
here so that later lookups are plain attribute reads.
"""

import importlib

# home module -> the public names it contributes to the package root.  No
# module calls six of them: scal_single_warped, alternation, op_from_tensor,
# permute and ode_rhs are the tests' oracles, and perfbench's tracer requires
# alternation and dump_operator.
_PUBLIC = {
    "action": (
        "HatTensor", "SoElement", "act_on_operator", "ad_matrix", "curvature_term", "hat",
        "hat_norm_sq", "inner", "ric_identity_closed_form", "ric_of", "so_act", "wedge_element",
    ),
    "bochner": (
        "BettiVerdict", "BochnerVerdict", "TachibanaVerdict", "TensorKind", "betti_bound",
        "betti_verdict", "direct_term_check", "estimate_constant", "fourdim_einstein_term",
        "lemma21_verdict", "normal_h_term", "tachibana_verdict",
    ),
    "catalog": (
        "cp2_op", "extremal_pform", "negative_2form_term_op", "negative_sym2_term_op",
        "product_of_spheres_op", "singer_thorpe_basis", "singer_thorpe_op", "sphere_product_op",
    ),
    "operators": (
        "CurvatureOperator", "CurvDecomposition", "Spectrum", "alternation", "bianchi_split",
        "complex_sectional", "decompose", "identity_operator", "jacobi_eigh", "jacobi_eigh_batch",
        "op_from_tensor", "spectrum", "tensor_from_op",
    ),
    "tensors": (
        "CurvTensor", "PForm", "Sym2", "Tensor0k", "identity_sym2", "kulkarni_nomizu",
        "permute", "wedge_basis_form", "wedge_count", "wedge_index", "wedge_pairs",
    ),
    "warped": (
        "PerturbedProfile", "ShootResult", "WarpJet", "dwp_eigenvalue_list", "dwp_eigenvalues",
        "dwp_operator", "integrate_warp_ode", "ode_rhs", "ode_shoot", "perturbed_profile",
        "round_jet", "scal_single_warped", "trajectory_scal",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_PUBLIC, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _PUBLIC:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
