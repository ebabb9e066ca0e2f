"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`SaakIqaError`, so callers
(and the CLI) can separate data problems from genuine bugs. File-system
problems use the builtin ``FileNotFoundError`` / ``OSError``.
"""


class SaakIqaError(Exception):
    """Base class for all errors raised by saakiqa."""


# What bad input data can raise: a report row error, a CLI exit code 2.
DATA_ERRORS = (SaakIqaError, OSError, ValueError)


# --- image decoding ---------------------------------------------------------

class MalformedHeaderError(SaakIqaError):
    """PGM header is not valid P2/P5 (bad magic, nonpositive dims, ...)."""


class UnsupportedMaxvalError(SaakIqaError):
    """PGM maxval exceeds 255 (only 8-bit samples are supported)."""


class TruncatedDataError(SaakIqaError):
    """PGM raster ends early or contains invalid sample data."""


# --- geometry ---------------------------------------------------------------

class ImageTooSmallError(SaakIqaError):
    """Image (or derived feature grid) is smaller than one block."""


class DimensionMismatchError(SaakIqaError):
    """Two inputs that must share dimensions do not."""


class GeometryMismatchError(SaakIqaError):
    """Input geometry is incompatible with the requested block layout."""


# --- transform training / application ---------------------------------------

class NoTrainingSamplesError(SaakIqaError):
    """No patch survived the training-sample selection rule."""


class InsufficientSamplesError(SaakIqaError):
    """Fewer than two training samples were supplied."""


class InvalidPairError(SaakIqaError):
    """A positive/negative channel pair is simultaneously active."""


# --- statistics -------------------------------------------------------------

class DegenerateInputError(SaakIqaError):
    """Both feature tensors are essentially zero; weights are undefined."""


class LengthMismatchError(SaakIqaError):
    """Paired vectors differ in length (or are too short)."""


class DegenerateVarianceError(SaakIqaError):
    """A correlation is undefined because an input has no variance."""


# --- batch harness ----------------------------------------------------------

class MalformedRowError(SaakIqaError):
    """A manifest row cannot be parsed."""


class NoValidRecordsError(SaakIqaError):
    """Every row of a batch evaluation failed."""
