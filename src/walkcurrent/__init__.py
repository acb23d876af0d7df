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
    CovarianceNotPSDError,
    DegenerateWeightsError,
    GridMismatchError,
    InsufficientReplicasError,
    MeshTooCoarseError,
    MgfDomainError,
    NegativeWeightError,
    NewtonConvergenceError,
    QuadratureConvergenceError,
    TiltBracketError,
    TruncationBudgetError,
    UnboundedSupportError,
    UnsortedTimesError,
    WalkCurrentError,
    WindowUnreachableError,
    ZeroMassError,
)
from .kernel import (
    JumpKernel,
    LatticePmf,
    chernoff_log_tail,
    chernoff_tail,
    gillespie_displacement,
    sample_displacement,
    sample_increments,
    validate_kernel,
    walk_pmf,
)
from .occupancy import OccupancyModel
from .simulate import (
    CellTable,
    CurrentField,
    ExperimentConfig,
    bracket,
    cell_table,
    exact_current_pmf,
    replica_rng,
    run_ensemble,
    signed_crossing_count,
    simulate_replica,
    truncation_radius,
    window_bound,
    window_span,
)
from .gaussian import (
    GridGaussian,
    LimitCovariance,
    Mesh,
    StochasticIntegralSampler,
    build_grid_gaussian,
    covariance_table,
    default_mesh,
    dynamic_cov,
    dynamic_cov_quadrature,
    fbm_cov,
    initial_cov,
    initial_cov_quadrature,
    limit_cov,
    limit_cov_matrix,
    sample_limit_process,
)
from .normal import mean_excess
from .stats import (
    ComparisonReport,
    EnsembleAccumulator,
    MeanReport,
    NormalityReport,
    covariance_report,
    mean_report,
    merge_accumulators,
    normality_diagnostics,
    scaling_exponent,
)
from .ldp import (
    MultiTimeSpec,
    RateModel,
    RateParts,
    TailEstimate,
    bernoulli_dual,
    build_multi_time_spec,
    crossing_log_mgf,
    current_log_mgf,
    current_log_mgf_prime,
    multi_time_rate,
    poisson_rate,
    rate_decomposed,
    rate_legendre,
    tilt_for_mean,
    tilted_crossing_prob,
    tilted_tail_estimate,
)
