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


class GainOverflowError(StablepacError):
    """A weight block's spectral norm exceeds the largest float, so the
    certificate gain it sets would be infinite; the message names the block."""


class InstabilityError(StablepacError):
    """A Lyapunov series or matrix power sequence diverges (spectral radius >= 1)."""


class DegenerateTruncationError(StablepacError):
    """Truncation window is so narrow relative to the scale that rejection sampling would stall."""


class SingularCompositionError(StablepacError):
    """Series composition is undefined because both contraction factors are zero."""


class InvalidConfidenceError(StablepacError):
    """Confidence parameter delta outside (0, 0.5]."""


class ConfigError(StablepacError):
    """A configuration value or input file is invalid; raised before any work starts."""


class KernelBuildError(StablepacError):
    """The C step loop of the cloud loss pass could not be compiled; the
    message names the compiler command and quotes what it reported."""
