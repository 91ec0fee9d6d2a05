"""Desk-scale verification of differential Harnack inequalities and entropy
monotonicity for the linear heat equation on discretized closed manifolds
with nonnegative Ricci curvature."""

from .geometry import (
    BackendError,
    ManifoldDescriptor,
    ManifoldKind,
    RicciKind,
    ScalarField,
    build_sphere,
    build_torus,
    constant_field,
    geodesic_distance,
    grad_norm_sq,
    hessian_penalty,
    integrate,
    laplacian,
    ricci_quadratic,
)
from .heatflow import (
    Direction,
    FlowState,
    PositivityLossError,
    SolverError,
    Trajectory,
    solve,
    step,
    tau_of_t,
)
from .harnack import (
    CAO_HAMILTON_H_PARAMS,
    LI_YAU_PARAMS,
    NI_PARAMS,
    HarnackParams,
    SignReport,
    Variant,
    assert_nonpositive,
    evolution_residual,
    evolution_rhs,
    log_u,
    log_v,
    quantity_H,
    quantity_P,
    quantity_general,
    quantity_liyau,
)
from .entropy import (
    SnapshotReport,
    dissipation_F,
    dissipation_W,
    entropy_F,
    entropy_W,
    entropy_series,
)
from .pathwise import (
    PairReport,
    SpaceTimePair,
    check_integrated_harnack,
    gamma_infimum,
    sample_pairs,
)
from .paramspace import (
    DEFAULT_SCAN,
    CaseTag,
    NamedMatch,
    ParamClassification,
    ScanResult,
    ScanSpec,
    case_one_uniqueness_scan,
    classify,
)
from .initialdata import (
    ConstantData,
    RandomSmoothData,
    SingleModeSolution,
    TrigMode,
    TrigPolynomialData,
    build_initial_field,
    wrapped_gaussian,
)

__version__ = "0.1.0"
