"""Exception types shared across the package."""


class RegarchError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(RegarchError):
    """Malformed input file.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(RegarchError):
    """Structurally valid input that violates a data invariant."""


class DomainError(RegarchError):
    """Parameter or argument outside its mathematical domain."""


class InsufficientDataError(RegarchError):
    """Operation needs more observations than were supplied."""


class InsufficientHistoryError(RegarchError):
    """Proposal adaptation called with too short a chain history."""


class NumericalError(RegarchError):
    """Non-finite or out-of-range intermediate value.

    Carries the index of the first offending element when known.
    """

    def __init__(self, message, index=None):
        if index is not None:
            message = f"{message} (index {index})"
        super().__init__(message)
        self.index = index


class AdaptationFailureError(RegarchError):
    """Chain acceptance collapsed; the adapted proposal never found the target."""


class WorkerError(RegarchError):
    """A fit in a forked child ended without sending back its result."""
