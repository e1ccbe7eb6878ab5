"""Exception types shared across the package; each concrete one carries its CLI exit code."""


class AltBaseError(Exception):
    """Base class for all altbase errors."""


class DomainError(AltBaseError):
    """A point lies outside the domain of the requested transformation."""
    exit_code = 3


class AlphabetError(AltBaseError):
    """A digit exceeds the alphabet bound of its position."""
    exit_code = 3


class SearchTooLarge(AltBaseError):
    """An exhaustive enumeration would exceed the configured size bound."""
    exit_code = 5


class SingularSystem(AltBaseError):
    """The density linear system is singular or too ill-conditioned to trust."""
    exit_code = 4


class TruncationTooShallow(AltBaseError):
    """The requested series truncation depth cannot reach the target accuracy."""
    exit_code = 4


class NotAllowable(AltBaseError):
    """The digit set violates the maximal-gap condition required for expansions."""
    exit_code = 3


class ParseError(AltBaseError):
    """Malformed input expression.

    Carries the 0-based offset of the offending character in ``position``.
    """
    exit_code = 2

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
