"""Exception types shared by every module in the package."""


class HelsonError(Exception):
    """Base class for errors raised by this package."""


class DomainError(HelsonError, ValueError):
    """Invalid argument, index out of range, or sieve overflow."""


class InvariantViolation(HelsonError, RuntimeError):
    """A mathematical invariant failed.  Indicates a bug, not bad input."""
