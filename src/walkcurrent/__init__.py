"""walkcurrent: space-time current fluctuations of independent lattice walks.

Simulates the signed particle current across moving reference lines for
systems of independent continuous-time random walks, evaluates the
closed-form Gaussian limit covariances (fractional Brownian motion with
Hurst exponent 1/4 along fixed spatial offsets) and the large-deviation
rate functions, and verifies each against the other by Monte Carlo,
quadrature, convex duality, and exact convolution oracles.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    DegenerateWeightsError,
    GridMismatchError,
    InsufficientReplicasError,
    MgfDomainError,
    NegativeWeightError,
    NewtonConvergenceError,
    QuadratureConvergenceError,
    TiltBracketError,
    TruncationBudgetError,
    UnboundedSupportError,
    WalkCurrentError,
    WindowUnreachableError,
    ZeroMassError,
)
from .kernel import (
    JumpKernel,
    LatticePmf,
    chernoff_log_tail,
    sample_displacement,
    validate_kernel,
    walk_pmf,
)
from .occupancy import OccupancyModel
from .simulate import (
    ClassTable,
    ExperimentConfig,
    certified_window,
    class_table,
    exact_current_pmf,
    run_ensemble,
    simulate_replica,
    split_batches,
    truncation_radius,
    window_bound,
    window_span,
)
from .gaussian import (
    LimitCovariance,
    covariance_table,
    dynamic_cov,
    dynamic_cov_quadrature,
    fbm_cov,
    initial_cov,
    initial_cov_quadrature,
    limit_cov,
    limit_cov_matrix,
)
from .normal import mean_excess
from .stats import (
    EnsembleAccumulator,
    covariance_report,
    mean_report,
    merge_accumulators,
    normality_diagnostics,
    scaling_exponent,
)
from .ldp import (
    RateModel,
    build_multi_time_spec,
    current_log_mgf,
    multi_time_rate,
    poisson_rate,
    rate_decomposed,
    rate_legendre,
    tilt_for_mean,
    tilted_tail_estimate,
)
