"""Exception hierarchy shared by all perfest modules, and the one test of
a legal number at the package boundary."""

import math
import numbers


def is_int(value, low=-math.inf, high=math.inf):
    """``value`` is an integer, not a bool, in [low, high]."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and low <= value <= high)


def is_real(value, low=-math.inf, high=math.inf):
    """``value`` is a finite real number, not a bool, in [low, high]."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value) and low <= value <= high
    except OverflowError:  # an integer past the float range
        return False


class PerfestError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(PerfestError):
    """A record or type violated an invariant. Carries the offending field."""

    def __init__(self, message, field=None, line=None):
        self.field = field
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateProbabilityError(PerfestError):
    """A probability was zero (or below the rejection floor) where a positive
    value is required. Never silently floored."""


class CapabilityError(PerfestError):
    """The service (or record) lacks a capability, e.g. input scoring for PPL."""


class GroupingError(PerfestError):
    """Records from different (service, task, context) groups were mixed."""


class UndefinedCorrelationError(PerfestError):
    """Pearson correlation requested for a constant vector."""


class EmptyProfileError(PerfestError):
    """Profile interpolation called on an empty value list."""


class ShapeError(PerfestError):
    """Profile dimensions or feature kinds do not match the trained model."""


class InsufficientDataError(PerfestError):
    """An estimator was given fewer data points than it requires."""


class ConfigurationError(PerfestError):
    """A plan, grid, or config value is out of its legal range."""


class ModelFormatError(PerfestError):
    """A model file is truncated, corrupt, or from an incompatible version."""


class CoverageError(PerfestError):
    """The record store is missing invocations required by an experiment plan."""

    def __init__(self, message, missing=()):
        self.missing = list(missing)
        super().__init__(message)


class TransportError(PerfestError):
    """A retryable HTTP transport failure while invoking a remote service."""
