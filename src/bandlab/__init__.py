"""bandlab: a numerical laboratory for random band matrices.

Builds variance profiles with general block-translation-invariant structure,
evaluates the deterministic limit theory (Stieltjes transform, characteristic
flow, Theta-propagators, primitive loops), and tests the quantitative
predictions (local laws, delocalization, quantum diffusion) by seeded Monte
Carlo at desk scale.
"""

from .lattice import BlockLattice, project_matrix
from .profiles import (
    VarianceProfile,
    ValidationReport,
    build_translation_invariant,
    build_wegner_orbital,
    wegner_orbital_profile,
    block_flat_profile,
    mean_field_profile,
    validate,
    interaction_strength,
    profile_to_text,
)
from .spectral import (
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
    KLoopCalculator,
    theta_entrywise,
    theta,
    ward_residual,
    kloop_flow_derivative_residual,
    theta_decay_report,
    finite_difference_report,
)
from .montecarlo import (
    SampleConfig,
    Band,
    build_band,
    GreenFunction,
    stream_for,
    sample_H,
    green,
    ward_gate_residual,
    law_scale,
    eigen_stats,
    diffusion_predictions,
    run_ensemble,
)

__version__ = "0.1.0"
