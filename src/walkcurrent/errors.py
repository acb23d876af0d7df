"""Exception taxonomy shared by all walkcurrent modules."""


class WalkCurrentError(Exception):
    """Base class for all package errors."""


# --- jump kernel -----------------------------------------------------------

class NegativeWeightError(WalkCurrentError):
    """A kernel weight is negative."""


class ZeroMassError(WalkCurrentError):
    """Kernel weights are empty or sum to zero."""


class UnboundedSupportError(WalkCurrentError):
    """Kernel support is not a finite set of integer offsets."""


class TruncationBudgetError(WalkCurrentError):
    """An exact pmf could not reach the requested tail mass within the memory cap."""


# --- occupancy -------------------------------------------------------------

class MgfDomainError(WalkCurrentError):
    """The occupancy log-MGF is evaluated (or required) outside its finite domain."""


# --- simulation ------------------------------------------------------------

class WindowUnreachableError(WalkCurrentError):
    """No window width within the memory cap meets the truncation tolerance."""


class GridMismatchError(WalkCurrentError):
    """An accumulator received a field with the wrong grid shape."""


# --- numerics --------------------------------------------------------------

class QuadratureConvergenceError(WalkCurrentError):
    """Adaptive quadrature failed to reach its error target."""


class TiltBracketError(WalkCurrentError):
    """The requested mean is outside the representable tilt range."""


class NewtonConvergenceError(WalkCurrentError):
    """A damped Newton solve did not converge."""


class DegenerateWeightsError(WalkCurrentError):
    """Importance weights collapsed (effective sample size too small)."""


class InsufficientReplicasError(WalkCurrentError):
    """A report was requested from too few replicas or batches."""


# --- configuration ---------------------------------------------------------

class ConfigError(WalkCurrentError):
    """Base class for configuration problems."""


class ConfigParseError(ConfigError):
    """The config file is not valid JSON."""


class ConfigValidationError(ConfigError):
    """The config parsed but violates the schema or a model constraint."""
