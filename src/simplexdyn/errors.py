"""Exception hierarchy shared across the package."""


class SimplexDynError(Exception):
    """Base class for all package errors."""


class NotInteriorError(SimplexDynError):
    """A coordinate is zero, negative, or non-finite where strict positivity is required."""


class NotNormalizedError(SimplexDynError):
    """Coordinate sum deviates from 1 beyond the simplex tolerance."""


class DimensionTooSmallError(SimplexDynError):
    """State vectors must be one-dimensional with at least two coordinates."""


class NotTangentError(SimplexDynError):
    """Component sum deviates from 0 beyond the tangent tolerance."""


class NonPositiveTauError(SimplexDynError):
    """Section scale factors must be strictly positive."""


class DimensionMismatchError(SimplexDynError):
    """Operands have incompatible dimensions."""


class LengthMismatchError(SimplexDynError):
    """Paired sequences have different lengths."""


class LandscapeValueError(SimplexDynError):
    """A landscape matrix or offset holds an entry that is not a finite real number."""


class EvaluationFailure(SimplexDynError):
    """A custom landscape evaluator raised or returned a malformed payoff."""


class NotDiagonalError(SimplexDynError):
    """Divergence localization produced a non-diagonal or indefinite matrix."""


class StepTooLargeError(SimplexDynError):
    """A finite-difference perturbation would leave the positive region."""


class NotSimplexPreservingError(SimplexDynError):
    """An ecological payoff violates the zero-mean constraint x . g(x) = 0."""


class StepSizeError(SimplexDynError):
    """Invalid integrator step size or step count."""


class EmptyTrajectoryError(SimplexDynError):
    """Operation requires a trajectory with enough recorded states."""


class RadiusTooLargeError(SimplexDynError):
    """A sampled neighborhood point left the positive region."""


class KindMismatchError(SimplexDynError):
    """Trajectory kind, state type, or target type does not match the operation."""


class NotSymmetricError(SimplexDynError):
    """The payoff matrix must be symmetric for this check."""


class ConfigError(SimplexDynError):
    """Scenario configuration is missing, malformed, or inconsistent."""
