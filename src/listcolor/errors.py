"""Exception hierarchy shared across the package."""


class ListColorError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParameterError(ListColorError):
    """A parameter violates an operation's precondition (e.g. k > sigma)."""


class GraphParseError(ListColorError):
    """Malformed graph text; message carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ListParseError(ListColorError):
    """Malformed list-assignment text; names the offending vertex or line."""


class GuardExceededError(ListColorError):
    """A desk-scale resource guard was hit before the search completed."""


class CertificateError(ListColorError):
    """A certificate contract was violated (improper triple, invalid
    coloring, or an extraction called on a colorable instance)."""


class SolveTimeout(ListColorError):
    """The solver's cooperative deadline expired before a decision."""


class ConfigError(ListColorError):
    """An experiment configuration failed validation."""


class RegimeError(ListColorError):
    """Parameters do not match the requested bound's regime (e.g. no girth
    given to a girth regime, or k = 2 to a k >= 3 one)."""
