"""Exception types shared across the package."""


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
    """Trajectory similarity requested on insufficient temporal overlap."""
