"""Exact extraction of two-layer ReLU networks from gradient and value queries.

The library ships the target model family and its query oracles, the
extraction attack (hyperplane search, then signs from its line's end
gradients), the paper's value-query sign step as a reference, a Monte Carlo
validation suite for the probability bounds the attack relies on, and a CLI.
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
    learn_model,
    recover_z,
    select_parameters,
)
from .geometry import block_sign_matrix, recover_s, sign_query_points, solve_linear_system
from .model import (
    RecoveredModel,
    TwoLayerNet,
    cell_mask,
    eval_target,
    generate_random_net,
    grad_target,
    load_net,
    load_recovered,
    rank_with_tolerance,
    recovered_from_net,
    save_net,
    save_recovered,
)
from .oracle import Oracle, SmoothGradConfig
from .validation import (
    FiniteDiffConfig,
    check_fd_exactness,
    functional_equivalence,
    match_rows,
    mc_cauchy_tail,
    mc_chi2_diff,
    mc_crossing_gap,
    mc_gaussian_product,
)

__version__ = "0.1.0"
