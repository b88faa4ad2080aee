"""Exact curvature-operator algebra on small Euclidean spaces.

Dense tensors under the so(n) action, hat tensors and curvature terms,
operator spectra with eigenvalue-sum positivity verdicts, an exact catalog
of operators and sharp pairs, warped-product spectra, and a shooting
integrator, all behind a deterministic verification CLI.
"""

from .action import (
    HatTensor,
    SoElement,
    act_on_operator,
    ad_matrix,
    curvature_term,
    hat,
    hat_norm_sq,
    ric_identity_closed_form,
    ric_of,
    so_act,
    wedge_element,
)
from .bochner import (
    BettiVerdict,
    BochnerVerdict,
    TachibanaVerdict,
    TensorKind,
    betti_bound,
    betti_verdict,
    direct_term_check,
    estimate_constant,
    fourdim_einstein_term,
    lemma21_verdict,
    normal_h_term,
    tachibana_verdict,
)
from .catalog import (
    ExtremalPair,
    SingerThorpeBasis,
    cp2_op,
    extremal_pform,
    negative_2form_term_op,
    negative_sym2_term_op,
    product_of_spheres_op,
    singer_thorpe_basis,
    singer_thorpe_op,
    small_extremals,
    sphere_product_op,
)
from .operators import (
    CurvatureOperator,
    CurvDecomposition,
    Spectrum,
    alternation,
    bianchi_split,
    complex_sectional,
    decompose,
    identity_operator,
    jacobi_eigh,
    jacobi_eigh_batch,
    op_from_tensor,
    ricci_contract,
    spectrum,
    tensor_from_op,
)
from .tensors import (
    CurvTensor,
    PForm,
    Sym2,
    Tensor0k,
    contract,
    identity_sym2,
    inner,
    kulkarni_nomizu,
    max_dimension,
    norm_sq,
    permute,
    wedge_basis_form,
    wedge_count,
    wedge_index,
    wedge_pairs,
)
from .warped import (
    OdeState,
    PerturbedProfile,
    ShootResult,
    WarpJet,
    dwp_eigenvalue_list,
    dwp_eigenvalues,
    dwp_operator,
    integrate_warp_ode,
    ode_rhs,
    ode_shoot,
    perturbed_profile,
    round_jet,
    scal_single_warped,
    trajectory_scal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
