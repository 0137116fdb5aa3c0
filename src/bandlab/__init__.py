"""bandlab: a numerical laboratory for random band matrices.

Builds variance profiles with general block-translation-invariant structure,
evaluates the deterministic limit theory (Stieltjes transform, characteristic
flow, Theta-propagators, primitive loops, evolution kernels), and tests the
quantitative predictions (local laws, delocalization, quantum diffusion) by
seeded Monte Carlo at desk scale.
"""

from .lattice import BlockLattice, project_matrix, project_tensor
from .profiles import (
    VarianceProfile,
    ValidationReport,
    build_translation_invariant,
    build_wegner_orbital,
    block_flat_profile,
    mean_field_profile,
    mean_field_matrix,
    validate,
    interaction_strength,
    flow_profile,
    family_member,
    decompose_core,
    profile_to_text,
    profile_from_text,
)
from .spectral import (
    SpectralPoint,
    FlowParams,
    stieltjes_m,
    m_t,
    select_parameters,
    flow_point,
    ell_of_eta,
    ell_t,
    eta_star,
)
from .deterministic import (
    LoopSignature,
    KLoopCalculator,
    theta_entrywise,
    theta,
    khat_loop,
    k_loop,
    cut_signature,
    ward_residual,
    kloop_flow_derivative_residual,
    evolution_kernel_apply,
    random_walk_representation,
    theta_decay_report,
    finite_difference_report,
)
from .montecarlo import (
    SampleConfig,
    GreenFunction,
    stream_for,
    sample_H,
    flow_increment,
    green,
    ward_gate_residual,
    g_loop,
    law_scale,
    eigen_stats,
    diffusion_predictions,
    run_ensemble,
)

__version__ = "0.1.0"
