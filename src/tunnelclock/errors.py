"""Exception types shared across the package."""

__all__ = [
    "TunnelClockError",
    "InvalidParameterError",
    "DegenerateEnergyError",
    "InvalidPerturbationError",
    "CouplingTooStrongError",
    "UndefinedReadingError",
    "OpaqueUnderflowError",
    "CouplingWarning",
]


class TunnelClockError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(TunnelClockError, ValueError):
    """A constructor or operation argument violates its preconditions."""


class DegenerateEnergyError(InvalidParameterError):
    """Scattering energy coincides exactly with a region height.

    The plane/evanescent wave basis collapses when a local wavenumber is
    exactly zero, so such energies are rejected rather than regularized.
    Anything other than exact floating-point equality is accepted.
    """


class InvalidPerturbationError(InvalidParameterError):
    """Perturbation strength pushes a closed-form wavenumber out of range."""


class CouplingTooStrongError(InvalidParameterError):
    """Largest clock level shift is not small against the energy margins."""


class UndefinedReadingError(TunnelClockError):
    """Pointer density has no usable circular mean (uniform distribution)."""


class OpaqueUnderflowError(TunnelClockError):
    """Quantity decayed below representable range; regime too opaque to compare."""


class CouplingWarning(UserWarning):
    """Clock coupling exceeds the advisory fraction of the energy margins."""
