"""Population dynamics on the probability simplex, with the geometry to match.

The package simulates replicator, ecological, Lotka-Volterra, and coupled
two-population dynamics, and provides numerical certificates for the
structure underneath them: the reciprocal-coordinate metric recovered from
divergence localization, gradient-flow consistency, KL-divergence Lyapunov
functions, sampled evolutionary stability, and closed-form solutions in
exponential coordinates.
"""

from .core import (
    SIMPLEX_TOL,
    TANGENT_TOL,
    CoupledState,
    Custom,
    Landscape,
    Linear,
    LogLinear,
    OrthantPoint,
    Scaled,
    SimplexPoint,
    TangentVector,
    barycenter,
    evaluate_landscape,
    evaluate_landscape_batch,
    evaluate_landscape_coupled,
    fitness_variance,
    mean_fitness,
    normalize,
    section,
    validate_simplex,
)
from .divergence import (
    denormalized_kl,
    kl,
    kl_formula,
    potential_information_sum,
)
from .dynamics import (
    POS_FLOOR,
    CoupledReplicator,
    Diagnostics,
    Ecological,
    LotkaVolterra,
    Replicator,
    ShiftedLotkaVolterra,
    Trajectory,
    VectorFieldKind,
    coupled_exp_family_solver,
    coupled_replicator_field,
    ecological_field,
    exp_family_solver,
    integrate,
    lv_correspondence_residual,
    lv_field,
    normalize_lv_trajectory,
    orbit_gap,
    replicator_field,
    shifted_lv_field,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DimensionTooSmallError,
    EmptyTrajectoryError,
    EvaluationFailure,
    KindMismatchError,
    LandscapeValueError,
    LengthMismatchError,
    NonPositiveTauError,
    NotDiagonalError,
    NotInteriorError,
    NotNormalizedError,
    NotSimplexPreservingError,
    NotSymmetricError,
    NotTangentError,
    RadiusTooLargeError,
    SimplexDynError,
    StepSizeError,
    StepTooLargeError,
)
from .geometry import (
    LocalizationReport,
    MetricTensor,
    OrthantMetricKind,
    exp_map,
    fisher_metric_at,
    inner_product,
    localize_divergence,
    metric_at,
    orthant_metric_at,
    shahshahani_gradient,
)
from .analysis import (
    EssReport,
    LyapunovReport,
    coupled_ess_check,
    denormalized_ess_check,
    ess_check,
    fisher_theorem_check,
    gradient_consistency_check,
    lyapunov_monitor,
)

__version__ = "0.1.0"

# every public name the imports above bind, less the submodules they bind with them
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, type(core))]
