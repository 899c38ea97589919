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
transmitted (and reflected) conditional clock states. The T and R of the
shifted potentials come from scattering._shifted_solver, which also gives
the energy margin the largest shift must stay below; this module keeps
the coupling policy around it: a too strong coupling raises and one past
COUPLING_WARNING_FRACTION of the margin warns.

A measurement series reads the clock over halved couplings: each row
doubles tau. Doubling is exact in floating point, so omega and the shift
scale hbar*omega of a row are exactly half those of the row before (short
of subnormal underflow), and level 2m of a row has the shift
float(2m)*(s/2) == float(m)*s of level m of the row before. Before reading
any row, a call builds one table: a complex array with the (T, R) of
each distinct shift of every row whose coupling is within bound, and an
index from each shift to its row of the array. The rows only gather
from it, so each distinct shift is solved once and each row equals its
own measurement_simulation, the one-row call, bit for bit. A large table
is solved as one batch of lanes, a small one shift by shift, with the
same bits either way. A failing call raises the first error it
meets, in this order: the halvings count, the solver's set-up, a tau past
the float range, the first failing level in table order (row 0's levels
in ascending m, then each later row's new shifts), the row readings.

Pointer readings take the exact first trigonometric moment of the angular
density and the time expectation one FFT of the amplitudes, so neither
builds an angular grid or an N x N matrix.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import scattering
from .errors import (
    CouplingTooStrongError,
    CouplingWarning,
    InvalidParameterError,
    TunnelClockError,
    UndefinedReadingError,
)
from .potentials import (
    NATURAL_UNITS,
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
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
    "measurement_series",
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
        try:
            object.__setattr__(self, "N", operator.index(self.N))
        except TypeError:
            raise InvalidParameterError(f"N must be an integer, got {self.N!r}") from None
        if self.N < 3 or self.N % 2 == 0:
            raise InvalidParameterError(f"N must be odd and >= 3, got {self.N}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise InvalidParameterError(f"tau must be positive, got {self.tau}")
        # omega = 2*pi/(N*tau) must stay positive and finite to convert
        # angles to times.
        if not math.isfinite(self.N * self.tau):
            raise InvalidParameterError(
                f"clock period N*tau overflows the float range "
                f"(N={self.N}, tau={self.tau})"
            )
        if not math.isfinite(self.omega):
            raise InvalidParameterError(
                f"rotor frequency 2*pi/(N*tau) leaves the float range "
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


@dataclass(frozen=True)
class PointerReading:
    """Circular-mean pointer angle converted to time, with its spread."""

    t_read: float
    spread: float


@dataclass(frozen=True)
class MeasurementResult:
    """Pointer readings per scattering channel with channel weights.

    reflected is None when the reflected channel carries no weight at all,
    or when its angular density has no mean. In practice even a free
    potential reflects a little under measurement: every level m != 0
    scatters off its own shifted strip, so the channel only vanishes when
    all those amplitudes underflow together. Level 0 of a free region
    reflects exactly nothing, though, so with N = 3 the first moment of
    (R_-1, 0, R_1) is exactly zero and the density is uniform.

    shift_rounding is max |(fl(V + s) - V) - s| / |s| over the levels'
    nonzero shifts s and the heights V inside the clock region: the worst
    relative rounding of a shift as applied, exact for |s| <= |V|
    (Dekker's Fast2Sum).
    """

    transmitted: PointerReading
    reflected: PointerReading | None
    transmitted_weight: float
    reflected_weight: float
    shift_rounding: float


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


def _amplitudes(rotor: ClockRotor, state: ClockState) -> np.ndarray:
    """The state's amplitudes, one per level of the rotor."""
    if state.amplitudes.size != rotor.N:
        raise InvalidParameterError(
            f"state has {state.amplitudes.size} levels, rotor has N = {rotor.N}"
        )
    return state.amplitudes


def evolve(rotor: ClockRotor, state: ClockState, t: float) -> ClockState:
    """Free rotor evolution: amplitude of level m picks up e^{-i*m*omega*t}."""
    phases = np.exp(-1j * rotor.omega * t * rotor.levels)
    return ClockState(_amplitudes(rotor, state) * phases)


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
    weights = rotor.N * np.abs(np.fft.ifft(_amplitudes(rotor, state))) ** 2
    return float(np.sum(ks * rotor.tau * weights))


def read_pointer(rotor: ClockRotor, state: ClockState) -> PointerReading:
    """Circular mean of the angular density, reported as a time in [0, N*tau).

    The density |sum_m c_m e^{i*m*theta}|^2 / (2*pi) has the exact first
    trigonometric moment sum_m c_m conj(c_{m+1}), so no angular grid is
    needed. The spread is the circular standard deviation
    sqrt(-2 ln |first moment|) divided by omega.
    """
    amps = _amplitudes(rotor, state)
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


def _shifts(rotor: ClockRotor, units: UnitsConfig) -> list[float]:
    """The shift m*hbar*omega of every level, ascending m; the last is
    the largest, j*hbar*omega."""
    scale = units.hbar * rotor.omega
    return [float(m) * scale for m in range(-rotor.j, rotor.j + 1)]


def _presolved(rows: list[list[float]], bound: float, levels) -> tuple[np.ndarray, dict]:
    """The table a call reads: the (T, R) array that levels gives for the
    distinct shifts of every row of _shifts whose largest shift is within
    bound, in first-seen order, and the index of each shift's row in it.
    +0.0 and -0.0 share a row, since a height shifted by either gives
    every check and wavenumber the same floats."""
    shifts = dict.fromkeys(shift for row in rows if row[-1] < bound for shift in row)
    return levels(list(shifts)), {shift: i for i, shift in enumerate(shifts)}


def _heights(potential: PiecewiseConstantPotential, region: ClockRegion) -> np.ndarray:
    """The distinct heights of the intervals inside the clock region, as
    a column, less 0.0, which every shift moves exactly."""
    starts = [region.z1, *(z for z in potential.breakpoints if region.z1 < z < region.z2)]
    return np.array([*{potential(z) for z in starts} - {0.0}])[:, None]


def _shift_rounding(heights: np.ndarray, shifts: list[float]) -> float:
    """MeasurementResult.shift_rounding of one row, in one array pass."""
    s = np.array([shift for shift in shifts if shift])
    return float(np.max(np.abs((heights + s) - heights - s) / np.abs(s), initial=0.0))


def _reading(
    rotor: ClockRotor, shifts: list[float], bound: float, known: tuple[np.ndarray, dict],
    heights: np.ndarray,
) -> MeasurementResult | None:
    """One reading of the rotor with the level shifts of _shifts, from
    the table and index of _presolved, which hold the (T, R) of every
    shift of a row within bound, and the _heights the shifts apply to;
    None where the largest shift reaches bound. Every transmitted
    amplitude underflowing raises TunnelClockError.

    Only measurement_simulation and measurement_series call this, so the
    coupling warning points at their caller.
    """
    largest = shifts[-1]
    if largest >= bound:
        return None
    if largest > COUPLING_WARNING_FRACTION * bound:
        warnings.warn(
            f"largest level shift {largest} exceeds "
            f"{COUPLING_WARNING_FRACTION:.0%} of the energy margin {bound}; "
            "readings pick up visible back-action",
            CouplingWarning,
            stacklevel=3,
        )

    table, index = known
    transmitted, reflected = (table[[index[shift] for shift in shifts]] / math.sqrt(rotor.N)).T

    t_weight = float(np.sum(np.abs(transmitted) ** 2))
    r_weight = float(np.sum(np.abs(reflected) ** 2))

    if t_weight <= _WEIGHT_FLOOR:
        raise TunnelClockError(
            "transmitted amplitudes underflowed; the pointer state cannot "
            "be renormalized for reading"
        )
    t_reading = read_pointer(rotor, ClockState(transmitted / math.sqrt(t_weight)))
    r_reading = None
    if r_weight > _WEIGHT_FLOOR:
        try:
            r_reading = read_pointer(rotor, ClockState(reflected / math.sqrt(r_weight)))
        except UndefinedReadingError:
            pass
    return MeasurementResult(transmitted=t_reading, reflected=r_reading,
                             transmitted_weight=t_weight, reflected_weight=r_weight,
                             shift_rounding=_shift_rounding(heights, shifts))


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

    This is the one-row case of measurement_series, except that a coupling
    too strong for the energy margin raises CouplingTooStrongError.
    """
    bound, levels = scattering._shifted_solver(potential, region, energy, units)
    row = _shifts(rotor, units)
    known = _presolved([row], bound, levels)
    result = _reading(rotor, row, bound, known, _heights(potential, region))
    if result is None:
        raise CouplingTooStrongError(
            f"largest level shift j*hbar*omega = {row[-1]} reaches the "
            f"energy margin {bound}; reduce omega (raise tau) or N"
        )
    return result


def measurement_series(
    potential: PiecewiseConstantPotential,
    region: ClockRegion,
    energy: float,
    rotor: ClockRotor,
    halvings: int,
    units: UnitsConfig = NATURAL_UNITS,
) -> list[tuple[ClockRotor, MeasurementResult | None]]:
    """Readings over a series of halved couplings.

    Row 0 reads the given rotor; each of the halvings rows after it doubles
    tau, which halves omega and so the coupling. Each row is paired with
    its rotor and is None where the coupling is too strong for the energy
    margin. Every row equals its own measurement_simulation bit for bit.

    Each distinct level shift is solved once per call: before any row is
    read, the shifts of all rows within the margin go into one table. The
    rows only read it. A failing call raises the first error it meets, in
    the order the module docstring gives, before it reads any row.
    """
    if halvings < 0:
        raise InvalidParameterError(f"halvings must be >= 0, got {halvings}")
    bound, levels = scattering._shifted_solver(potential, region, energy, units)
    rotors = [rotor]
    for _ in range(halvings):
        # Doubling is exact; past the float range ClockRotor rejects tau.
        rotors.append(ClockRotor(rotor.N, rotors[-1].tau * 2.0))
    shifted = [_shifts(rotor, units) for rotor in rotors]
    known = _presolved(shifted, bound, levels)
    heights = _heights(potential, region)
    rows = []
    for rotor, row in zip(rotors, shifted):
        # a loop, so the coupling warning's stack level reaches the caller
        rows.append((rotor, _reading(rotor, row, bound, known, heights)))
    return rows
