"""Model-following control design and certification toolkit.

Synthesises two-loop model-following and single-loop controllers for flat
nonlinear systems with matched Lipschitz uncertainty, computes quadratic
Lyapunov robustness bounds and region-of-attraction level sets, simulates the
closed loops, and validates every certificate by brute-force sampling.
"""

from .plant import (
    Box,
    DEFAULT_DOMAIN,
    MsdParams,
    MsdPlant,
    msd_f,
    msd_g,
    msd_phi,
    msd_phi_gradient,
    msd_plant,
    phi_lipschitz_sup,
    sigma1,
    sigma1_bar,
)
from .synthesis import (
    GainSet,
    LyapunovCertificate,
    bP_norm,
    certify,
    design_gains,
    gamma_mfc,
    gamma_sl,
    gamma_slhg,
    high_gain,
    lambda_min,
    m_matrix_positive,
    place_poles,
    solve_lyapunov,
)
from .steady_state import (
    EquilibriumSet,
    classify_stability,
    mfc_equilibria,
    mfc_steady_polynomial,
    multiplicity_transition,
    single_loop_equilibria,
    sl_steady_polynomial,
    solve_cubic,
)
from .roa import (
    RoaEstimate,
    aux_radius,
    c_star,
    compare_levels,
    estimate_mfc1,
    estimate_mfc2,
    estimate_sl,
    estimate_slhg,
    mfc2_region_sweep,
    r_mfc2,
)
from .simulate import (
    ControllerSpec,
    IntegrationError,
    SetPoint,
    Trajectory,
    metrics,
    simulate_closed_loop,
    steady_state_of,
    time_to_track,
)
from .falsify import (
    FalsificationReport,
    falsify_roa,
    falsify_sets,
    gamma_empirical,
    sample_in_set,
)
from .config import ConfigError, ScenarioConfig, load_config, parse_config, preset

__version__ = "0.1.0"
