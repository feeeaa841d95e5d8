"""Domain-specific exceptions shared across the package, and ``check``, the
one checker of scalar arguments and configuration values."""

import math
import numbers

# A scalar's rules, each a (test, condition) pair that ``check`` tries in
# order.  A count such as 5.7 must not be truncated silently, and a string or
# None must not fail in a comparison that names no argument; bool is an
# Integral too, but True/False for a number is a typo.
INT = (lambda v: not isinstance(v, bool) and isinstance(v, numbers.Integral), "an integer")
REAL = (
    lambda v: not isinstance(v, bool) and isinstance(v, numbers.Real) and math.isfinite(v),
    "a finite number",
)
POSITIVE = (lambda v: v > 0, "> 0")
NONNEGATIVE = (lambda v: v >= 0, ">= 0")
AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
# The PAC-Bayes confidence delta.
CONFIDENCE = (lambda v: 0 < v <= 0.5, "in (0, 0.5]")


def check(name: str, value, *rules, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming ``name`` and the value at the first rule it fails:
    ``<name> must be <condition>, got <value>``."""
    for test, condition in rules:
        if not test(value):
            raise error(f"{name} must be {condition}, got {value!r}")


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
    """A Lyapunov series or matrix power sequence diverges (spectral radius >= 1),
    or a simulated trajectory overflows."""


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
