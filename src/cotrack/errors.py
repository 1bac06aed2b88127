"""Exception types shared across the package."""

import math


class CotrackError(ValueError):
    """Base class for all package-specific errors."""


class ConfigurationError(CotrackError):
    """A config file or config object violates the documented schema."""


class ShapeMismatchError(CotrackError):
    """Two grids that must share a GridSpec do not."""


class OrderingError(CotrackError):
    """Timestamps were not strictly increasing where required."""


class DecodeError(CotrackError):
    """A byte stream could not be parsed as a transmitted payload."""


class EncodeError(CotrackError):
    """A payload cannot be written in its wire format (a field out of range)."""


class NumericError(CotrackError):
    """A numerical invariant (e.g. positive-definite covariance) failed."""


class AlignmentError(CotrackError):
    """Ground-truth and hypothesis frame sequences are misaligned."""


class UndefinedSimilarityError(CotrackError):
    """A trajectory measure requested on too few samples or too little overlap."""


def _finite(value) -> bool:
    """Whether a field value is finite: a float itself, a tuple all its
    items; any other value (an int, an enum, a dataclass) is."""
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def check_finite(config, *values: float) -> None:
    """Raise ``ConfigurationError`` unless each of ``values``, the floats of
    the dataclass ``config`` with its tuple fields spread, is finite. The
    message names the first field that holds a NaN or an infinity."""
    if not all(map(math.isfinite, values)):
        name, value = next((name, value) for name, value in vars(config).items()
                           if not _finite(value))
        raise ConfigurationError(f"{type(config).__name__}.{name} must be finite, got {value!r}")
