"""Discrete quantum clock: an N-level rotor read through its pointer angle.

The clock Hamiltonian is hbar*omega*J with J diagonal on integer levels
m in {-j, ..., j}, N = 2j + 1, omega = 2*pi/(N*tau). The pointer basis
consists of the N states whose angular wavefunctions are sharp peaks at
angles 2*pi*k/N; free evolution rotates those peaks rigidly, and exactly
at integer multiples of the resolution tau the pointer advances by whole
steps.

Coupling to a scattering problem is diagonal in m: while the particle is
inside the clock region, level m sees the potential shifted by m*hbar*omega.
The measurement simulation scatters each level off its own shifted
potential and reads the transit time off the rotated pointer of the
transmitted (and reflected) conditional clock states. The levels share the
cut list of the shifted potentials; per level only the heights inside the
region change, and only T and R are computed, by the backward sweep that
scattering.solve runs, with every check solve makes.

Pointer readings take the exact first trigonometric moment of the angular
density and the time expectation one FFT of the amplitudes, so neither
builds an angular grid or an N x N matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import scattering
from .errors import (
    CouplingTooStrongError,
    CouplingWarning,
    InvalidParameterError,
    OpaqueUnderflowError,
    UndefinedReadingError,
)
from .potentials import (
    NATURAL_UNITS,
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
    _clock_cuts,
)

__all__ = [
    "ClockRotor",
    "ClockState",
    "PointerReading",
    "MeasurementResult",
    "basis_state",
    "evolve",
    "time_expectation",
    "read_pointer",
    "measurement_simulation",
    "COUPLING_WARNING_FRACTION",
]

# Advisory threshold: warn when the largest level shift j*hbar*omega
# exceeds this fraction of the smallest energy margin. The hard bound is
# the margin itself.
COUPLING_WARNING_FRACTION = 0.1

# Pointer channels lighter than this are reported as absent rather than
# renormalized into a reading.
_WEIGHT_FLOOR = 1e-300


@dataclass(frozen=True)
class ClockRotor:
    """Rotor dimension and resolution; omega*N*tau = 2*pi."""

    N: int
    tau: float

    def __post_init__(self) -> None:
        if self.N < 3 or self.N % 2 == 0:
            raise InvalidParameterError(f"N must be odd and >= 3, got {self.N}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise InvalidParameterError(f"tau must be positive, got {self.tau}")
        # omega = 2*pi/(N*tau) must stay positive to convert angles to times.
        if not math.isfinite(self.N * self.tau):
            raise InvalidParameterError(
                f"clock period N*tau overflows the float range "
                f"(N={self.N}, tau={self.tau})"
            )

    @property
    def j(self) -> int:
        return (self.N - 1) // 2

    @property
    def omega(self) -> float:
        return math.tau / (self.N * self.tau)

    @property
    def levels(self) -> np.ndarray:
        return np.arange(-self.j, self.j + 1)


@dataclass(frozen=True, eq=False)
class ClockState:
    """Amplitudes over the rotor's energy levels m = -j..j, unit norm."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 3 or amps.size % 2 == 0:
            raise InvalidParameterError(
                f"amplitudes must be a 1-d odd-length vector, got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise InvalidParameterError(
                f"state norm must be 1 within 1e-12, got {norm!r}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_unnormalized(cls, amplitudes: np.ndarray) -> "ClockState":
        amps = np.asarray(amplitudes, dtype=complex)
        norm = float(np.linalg.norm(amps))
        if norm == 0.0:
            raise InvalidParameterError("cannot normalize a zero vector")
        return cls(amps / norm)


@dataclass(frozen=True)
class PointerReading:
    """Circular-mean pointer angle converted to time, with its spread."""

    t_read: float
    spread: float


@dataclass(frozen=True)
class MeasurementResult:
    """Pointer readings per scattering channel with channel weights.

    reflected is None when the reflected channel carries no weight at all.
    In practice even a free potential reflects a little under measurement:
    every level m != 0 scatters off its own shifted strip, so the channel
    only vanishes when all those amplitudes underflow together.
    """

    transmitted: PointerReading
    reflected: PointerReading | None
    transmitted_weight: float
    reflected_weight: float


def basis_state(rotor: ClockRotor, k: int) -> ClockState:
    """Pointer state with angular peak at 2*pi*k/N.

    Amplitudes are e^{-2*pi*i*m*k/N}/sqrt(N); the phase is computed from
    the reduced integer (m*k) mod N so orthonormality holds to rounding
    even for large k.
    """
    if not 0 <= k < rotor.N:
        raise InvalidParameterError(
            f"pointer index must be in [0, {rotor.N - 1}], got {k}"
        )
    reduced = np.mod(rotor.levels * k, rotor.N)
    amps = np.exp(-2j * math.pi * reduced / rotor.N) / math.sqrt(rotor.N)
    return ClockState(amps)


def evolve(rotor: ClockRotor, state: ClockState, t: float) -> ClockState:
    """Free rotor evolution: amplitude of level m picks up e^{-i*m*omega*t}."""
    phases = np.exp(-1j * rotor.omega * t * rotor.levels)
    return ClockState(state.amplitudes * phases)


def time_expectation(rotor: ClockRotor, state: ClockState) -> float:
    """Expectation of the pointer-time operator sum_k (k*tau) |<v_k|state>|^2.

    Exact (to rounding) for the pointer states themselves. At times between
    integer multiples of tau the expectation is a known biased average over
    the stepped pointer distribution, not the elapsed time; that bias is a
    property of the operator, left intact deliberately.
    """
    ks = np.arange(rotor.N)
    # <v_k|state> = sum_m c_m e^{2*pi*i*m*k/N} / sqrt(N). Shifting m by j
    # to index the amplitudes from 0 only rotates the phase, so
    # |<v_k|state>|^2 = N |ifft(c)_k|^2.
    weights = rotor.N * np.abs(np.fft.ifft(state.amplitudes)) ** 2
    return float(np.sum(ks * rotor.tau * weights))


def read_pointer(rotor: ClockRotor, state: ClockState) -> PointerReading:
    """Circular mean of the angular density, reported as a time in [0, N*tau).

    The density |sum_m c_m e^{i*m*theta}|^2 / (2*pi) has the exact first
    trigonometric moment sum_m c_m conj(c_{m+1}), so no angular grid is
    needed. The spread is the circular standard deviation
    sqrt(-2 ln |first moment|) divided by omega.
    """
    amps = state.amplitudes
    moment = np.vdot(amps[1:], amps[:-1]) / np.vdot(amps, amps).real
    resultant = abs(moment)
    if resultant < 1e-12:
        raise UndefinedReadingError(
            "angular density is uniform; pointer mean undefined"
        )
    angle = math.atan2(moment.imag, moment.real) % math.tau
    # A mean a half-ulp below zero must read as zero, not as a full turn.
    if angle == math.tau:
        angle = 0.0
    spread = math.sqrt(-2.0 * math.log(min(resultant, 1.0))) / rotor.omega
    return PointerReading(t_read=angle / rotor.omega, spread=spread)


def _coupling_bound(bases: list[float], inside: list[bool], energy: float) -> float:
    """Smallest energy margin the level shifts must stay below: the energy
    itself and the distance |V - E| of every interval inside the clock
    region, above or below E. Intervals outside the region never shift."""
    bound = energy
    for base, hit in zip(bases, inside):
        if hit:
            bound = min(bound, abs(base - energy))
    return bound


def measurement_simulation(
    potential: PiecewiseConstantPotential,
    region: ClockRegion,
    energy: float,
    rotor: ClockRotor,
    units: UnitsConfig = NATURAL_UNITS,
) -> MeasurementResult:
    """Scatter each clock level off its shifted potential and read the clock.

    The incoming product state has the clock at pointer zero, so level m
    carries amplitude 1/sqrt(N). After scattering, the transmitted
    conditional clock state has amplitudes T^(m)/sqrt(N) (reflected:
    R^(m)/sqrt(N)); both are renormalized before reading. Levels are
    processed in ascending m order, so results are deterministic.
    """
    # Every level shares the cut list; only the heights inside the region
    # move with m.
    cuts, bases, inside = _clock_cuts(potential, region)
    shift_scale = units.hbar * rotor.omega
    bound = _coupling_bound(bases, inside, energy)
    largest = rotor.j * shift_scale
    if largest >= bound:
        raise CouplingTooStrongError(
            f"largest level shift j*hbar*omega = {largest} reaches the "
            f"energy margin {bound}; reduce omega (raise tau) or N"
        )
    if largest > COUPLING_WARNING_FRACTION * bound:
        warnings.warn(
            f"largest level shift {largest} exceeds "
            f"{COUPLING_WARNING_FRACTION:.0%} of the energy margin {bound}; "
            "readings pick up visible back-action",
            CouplingWarning,
            stacklevel=2,
        )

    amplitudes = []
    for m in rotor.levels.tolist():
        strength = float(m) * shift_scale
        heights = [base + strength if hit else base for base, hit in zip(bases, inside)]
        amplitudes.append(
            scattering._transmission_reflection(heights, cuts, energy, units)
        )
    transmitted, reflected = (
        np.array(channel) / math.sqrt(rotor.N) for channel in zip(*amplitudes)
    )

    t_weight = float(np.sum(np.abs(transmitted) ** 2))
    r_weight = float(np.sum(np.abs(reflected) ** 2))

    if t_weight <= _WEIGHT_FLOOR:
        raise OpaqueUnderflowError(
            "transmitted amplitudes underflowed; the pointer state cannot "
            "be renormalized for reading"
        )
    t_reading = read_pointer(
        rotor, ClockState(transmitted / math.sqrt(t_weight))
    )
    if r_weight > _WEIGHT_FLOOR:
        r_reading = read_pointer(
            rotor, ClockState(reflected / math.sqrt(r_weight))
        )
    else:
        r_reading = None
    return MeasurementResult(
        transmitted=t_reading,
        reflected=r_reading,
        transmitted_weight=t_weight,
        reflected_weight=r_weight,
    )
