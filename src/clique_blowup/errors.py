"""Exception types shared across the package."""


class CliqueBlowupError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CliqueBlowupError):
    """Malformed edge-list text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SelfLoopError(CliqueBlowupError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(CliqueBlowupError):
    """The same unordered vertex pair appears more than once."""


class InvalidParameterError(CliqueBlowupError):
    """A parameter is outside its documented range."""


class NotConnectedError(CliqueBlowupError):
    """The operation requires a connected graph."""


class DegreeZeroError(CliqueBlowupError):
    """The operation requires every vertex to have at least one neighbor."""


class NotSymmetricError(CliqueBlowupError):
    """Matrix deviates from symmetry beyond the allowed tolerance."""


class InconsistentSpectrumError(CliqueBlowupError):
    """A spectrum multiset violates the structure the operation relies on."""


class InternalAssertionError(CliqueBlowupError):
    """Two routes that must agree produced different results."""


class SizeCapExceededError(CliqueBlowupError):
    """The requested computation exceeds a size cap, or the range of a double."""


class NumericalFailureError(CliqueBlowupError):
    """A numerical routine failed on input that should be well posed."""


class ClosedFormMismatchWarning(UserWarning):
    """Kept only so that existing imports keep working; nothing emits it.

    A single-shot closed expression that disagrees with its iterated
    recurrence raises InternalAssertionError instead.
    """
