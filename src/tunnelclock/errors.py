"""Exception types shared across the package."""

__all__ = [
    "TunnelClockError",
    "InvalidParameterError",
    "CouplingTooStrongError",
    "UndefinedReadingError",
    "CouplingWarning",
]


class TunnelClockError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(TunnelClockError, ValueError):
    """A constructor or operation argument violates its preconditions."""


class CouplingTooStrongError(InvalidParameterError):
    """Largest clock level shift is not small against the energy margins."""


class UndefinedReadingError(TunnelClockError):
    """Pointer density has no usable circular mean (uniform distribution)."""


class CouplingWarning(UserWarning):
    """Clock coupling exceeds the advisory fraction of the energy margins."""
