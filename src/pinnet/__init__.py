"""pinnet: pinning control of coupled ODE networks.

Verifies the sufficient conditions under which a single local controller
pins a diffusively coupled network to a target trajectory, and simulates the
pinned network to reproduce the reference synchronization experiments.
"""

from .cli import (
    ConditionReport,
    RunResult,
    ScenarioConfig,
    ScenarioError,
    build_system,
    check_scenario,
    parse_scenario,
    render_report,
    run_scenario,
    serialize_scenario,
)
from .conditions import (
    QuadCertificate,
    SpectralReport,
    Verdict,
    certified_quad_margin,
    min_coupling_strength,
    proposition1_holds,
    quad_check_sampled,
    quad_margin_affine,
    random_coupling_matrix,
    reducible_pinnability,
    spectral_negativity,
    theorem1_margin,
    theorem3_check,
    theorem4_check,
    verify_certificate,
    weighted_spectrum,
)
from .linalg import (
    Condensation,
    ReducibilityError,
    SymmetryError,
    left_null_vector,
    scc_condensation,
    sym_eigen,
    symmetrize_weighted,
)
from .model import (
    CHUA_K,
    CHUA_L,
    UNCONTROLLED,
    CouplingError,
    CouplingFunction,
    CouplingMatrix,
    Dynamics,
    NetworkSystem,
    PinPlan,
    chua_region_jacobian,
    make_dynamics,
    network_operator,
    pinned_matrix,
    register_dynamics,
    validate_coupling,
)
from .scenarios import BUILTIN_SCENARIOS, COUPLING_MATRICES
from .simulate import (
    DivergenceError,
    MetricSeries,
    MonitorReport,
    Trajectory,
    decay_rate_fit,
    integrate,
    integrate_batch,
    lyapunov_monitor,
    metrics,
)

__version__ = "0.1.0"
