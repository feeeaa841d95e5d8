"""Domain-specific exceptions shared across the package."""


class StablepacError(ValueError):
    """Base class for all domain errors raised by this package."""


class NotStableError(StablepacError):
    """A system fails the stability certificate (contraction factor >= 1).

    Carries the offending value in ``value`` so callers can report how far
    from certifiable the system is.
    """

    def __init__(self, message: str, value: float | None = None):
        super().__init__(message)
        self.value = value


class InstabilityError(StablepacError):
    """A Lyapunov series or matrix power sequence diverges (spectral radius >= 1)."""


class DegenerateTruncationError(StablepacError):
    """Truncation window is so narrow relative to the scale that rejection sampling would stall."""


class SingularCompositionError(StablepacError):
    """Series composition is undefined because both contraction factors are zero."""


class InvalidStartError(StablepacError):
    """MCMC chain started at a point with zero density."""


class InvalidConfidenceError(StablepacError):
    """Confidence parameter delta outside (0, 0.5]."""


class ConfigError(StablepacError):
    """A configuration value is invalid or unsupported; raised before any work starts."""
