"""Exact extraction of two-layer ReLU networks from gradient and value queries.

The library ships the target model family and its query oracles, the
extraction attack (hyperplane search plus sign recovery), the geometric
query-point construction, a Monte Carlo validation suite for the probability
bounds the attack relies on, and a CLI tying them together.
"""

from .errors import (
    ConfigError,
    ExtractionFailure,
    GenerationError,
    GeometryError,
    GradleakError,
    MatchAmbiguityError,
    SignRecoveryError,
    SingularMatrixError,
)
from .extraction import (
    ExtractionConfig,
    ExtractionReport,
    ZRecovery,
    binary_search_segment,
    learn_model,
    membership_step_bound,
    recover_s,
    recover_z,
    select_parameters,
)
from .geometry import sign_query_points
from .model import (
    RecoveredModel,
    TwoLayerNet,
    cell_mask,
    eval_target,
    generate_random_net,
    grad_target,
    load_net,
    load_recovered,
    recovered_from_net,
    save_net,
    save_recovered,
)
from .numerics import block_sign_matrix, rank_with_tolerance, solve_linear_system
from .oracle import (
    FiniteDiffConfig,
    Oracle,
    QueryLedger,
    SmoothGradConfig,
)
from .validation import (
    EquivalenceReport,
    FdExactnessReport,
    MatchResult,
    McReport,
    check_fd_exactness,
    functional_equivalence,
    match_rows,
    mc_cauchy_tail,
    mc_chi2_diff,
    mc_crossing_gap,
    mc_gaussian_product,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EquivalenceReport",
    "ExtractionConfig",
    "ExtractionFailure",
    "ExtractionReport",
    "FdExactnessReport",
    "FiniteDiffConfig",
    "GenerationError",
    "GeometryError",
    "GradleakError",
    "MatchAmbiguityError",
    "MatchResult",
    "McReport",
    "Oracle",
    "QueryLedger",
    "RecoveredModel",
    "SignRecoveryError",
    "SingularMatrixError",
    "SmoothGradConfig",
    "TwoLayerNet",
    "ZRecovery",
    "binary_search_segment",
    "block_sign_matrix",
    "cell_mask",
    "check_fd_exactness",
    "eval_target",
    "functional_equivalence",
    "generate_random_net",
    "grad_target",
    "learn_model",
    "load_net",
    "load_recovered",
    "match_rows",
    "mc_cauchy_tail",
    "mc_chi2_diff",
    "mc_crossing_gap",
    "mc_gaussian_product",
    "membership_step_bound",
    "rank_with_tolerance",
    "recover_s",
    "recover_z",
    "recovered_from_net",
    "save_net",
    "save_recovered",
    "select_parameters",
    "sign_query_points",
    "solve_linear_system",
]
