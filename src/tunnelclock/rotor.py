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
cut list of the shifted potentials, solve's energy checks and the
wavenumbers outside the region; per level only the wavenumbers of the
intervals inside the region change, with every check solve makes on them,
and only T and R are computed, by the backward sweep that scattering.solve
runs.

A measurement series reads the clock over halved couplings: each row
doubles tau. Doubling is exact in floating point, so omega and the shift
scale hbar*omega of a row are exactly half those of the row before (short
of subnormal underflow), and level 2m of a row has the shift
float(2m)*(s/2) == float(m)*s of level m of the row before: every even
level of a later row was already solved. The series keeps one dict of
(T, R) keyed by the exact bits of each shift for the whole call, looks
every level up there first and solves only what is missing, so each row
equals its own measurement_simulation bit for bit; keying by bits rather
than by float equality also holds where the shifts underflow to +-0.0.

Before reading any row, a series collects the distinct shifts of every
row whose coupling is within bound, in reading order. From _LANE_BATCH_MIN
shifts up it solves them as one batch of float64 lanes: the same checks,
sweep and amplitudes, with the forward and backward terms stacked in one
array, rounding like the scalar CPython arithmetic (see _arith), so every
lane equals the scalar solve bit for bit. A lane whose sweep would
rescale, fold or raise is solved by the scalar sweep instead, and an
exception it raises is kept under its shift and raised where that level
is read. Smaller batches keep the scalar sweep, solved level by level as
the rows are read. scattering.solve keeps the scalar sweep too: it walks
one wave across up to hundreds of regions, where a one-lane batch would
be far slower.

Pointer readings take the exact first trigonometric moment of the angular
density and the time expectation one FFT of the amplitudes, so neither
builds an angular grid or an N x N matrix.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import scattering
from ._arith import _cabs, _cadd, _cdiv, _cexp, _cmul, _each
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
    _check_finite,
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
    "measurement_series",
    "COUPLING_WARNING_FRACTION",
]

# Advisory threshold: warn when the largest level shift j*hbar*omega
# exceeds this fraction of the smallest energy margin. The hard bound is
# the margin itself.
COUPLING_WARNING_FRACTION = 0.1

# Calls with at least this many distinct level shifts solve them as one
# lane batch; fewer go through the scalar sweep one level at a time.
# Measured on a 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6): a scalar
# level of a double barrier costs 8.7 us and of a six-region stack
# 14.6 us; a lane costs 2.2 and 3.9 us plus 0.4 and 0.8 ms per batch, so
# the batch breaks even at 65 to 75 lanes.
_LANE_BATCH_MIN = 80

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


def _level_solver(
    potential: PiecewiseConstantPotential,
    region: ClockRegion,
    energy: float,
    units: UnitsConfig,
) -> tuple[float, Callable[[float], tuple[complex, complex]], Callable]:
    """The coupling bound, a function from a level's shift to its (T, R),
    and a function from a list of shifts to their results as one lane
    batch (see _lanes).

    The cut list, solve's energy checks, the free k and the wavenumbers of
    the intervals outside the region are computed once. Per level only the
    intervals inside the region get shifted heights, with the finiteness
    check of a potential's heights and solve's wavenumber checks, before
    the backward sweep that solve runs.
    """
    cuts, bases, inside = _clock_cuts(potential, region)
    k = scattering._free_wavenumber(energy, units)
    kappas = [
        k,
        *[None if hit else scattering._local_kappa(energy, base, units)
          for base, hit in zip(bases, inside)],
        k,
    ]
    moved = [(r, base) for r, (base, hit) in enumerate(zip(bases, inside), 1) if hit]

    def level(strength: float) -> tuple[complex, complex]:
        heights = [base + strength for _, base in moved]
        _check_finite(heights)
        for (r, _), height in zip(moved, heights):
            kappas[r] = scattering._local_kappa(energy, height, units)
        stored, logscale = scattering._sweep(kappas, cuts)
        return scattering._amplitudes(kappas, cuts, stored, logscale)

    def levels(strengths: list[float]) -> list:
        return _lanes(kappas, moved, cuts, energy, units, strengths, level)

    return _coupling_bound(bases, inside, energy), level, levels


def _lanes(kappas, moved, cuts, energy, units, strengths, level) -> list:
    """The (T, R) of each shift, or the exception level raises for it.

    The L shifts run as float64 lanes through the same checks, backward
    sweep and amplitudes as level, with CPython's scalar float and complex
    rules (see _arith), so every lane equals level's result bit for bit.
    kappas holds the fixed wavenumbers outside the region, and moved the
    (index, unshifted height) of each interval inside it. The forward and
    backward terms of the sweep run stacked in one array of 2L elements,
    forward first.

    A lane leaves this plain path where level would raise or branch: a
    shifted height that is not finite or equals the energy, a wavenumber
    that is zero or infinite, a zero divisor, an abs or exponential that
    raises (the sweep's fold), or a peak past the rescale limit. Those
    lanes go through level itself.
    """
    lanes = len(strengths)
    shifts = np.array(strengths, dtype=float)
    bad = np.zeros(lanes, bool)
    stacked_bad = np.zeros(2 * lanes, bool)

    def stack(first, second):
        both = np.empty(2 * lanes)
        both[:lanes], both[lanes:] = first, second
        return both

    # numpy scalars, so a zero part divides as the arrays do
    pairs = [(np.float64(kappa.real), np.float64(kappa.imag)) if kappa is not None else None
             for kappa in kappas]
    with np.errstate(all="ignore"):
        for r, base in moved:
            height = base + shifts
            ksq = 2.0 * units.mass * (energy - height)
            kappa = np.sqrt(np.abs(ksq)) / units.hbar
            # a height on E gives kappa 0
            bad |= ~(np.isfinite(height) & (0.0 < kappa) & (kappa < math.inf))
            propagating = ksq > 0.0
            pairs[r] = (np.where(propagating, kappa, 0.0), np.where(propagating, 0.0, kappa))

        # amp holds (forward, backward) as (real, imag) parts of 2L elements.
        amp = (stack(1.0, 0.0), np.zeros(2 * lanes))
        for r in range(len(kappas) - 2, -1, -1):
            ratio = _cdiv(pairs[r + 1], pairs[r], bad)
            ratio = (stack(ratio[0], ratio[0]), stack(ratio[1], ratio[1]))
            same = (1.0 + ratio[0], 0.0 + ratio[1])
            other = (1.0 - ratio[0], 0.0 - ratio[1])
            swapped = tuple(np.concatenate([part[lanes:], part[:lanes]]) for part in amp)
            edge = _cmul((0.5, 0.0), _cadd(_cmul(same, amp), _cmul(other, swapped)))
            if r >= 1:
                # scattering._scaled_exp(edge, -+1j * kappa * width)
                width = (cuts[r] - cuts[r - 1], 0.0)
                forward = _cmul(_cmul((-0.0, -1.0), pairs[r]), width)
                backward = _cmul(_cmul((0.0, 1.0), pairs[r]), width)
                zero = (edge[0] == 0.0) & (edge[1] == 0.0)
                mag = np.where(zero, 1.0, _cabs(edge, stacked_bad))
                exponent = (stack(forward[0], backward[0]) + _each(math.log, mag),
                            stack(forward[1], backward[1]) + 0.0)
                amp = _cmul(_cdiv(edge, (mag, 0.0), stacked_bad), _cexp(exponent, stacked_bad))
                amp = (np.where(zero, 0.0, amp[0]), np.where(zero, 0.0, amp[1]))
            else:
                amp = edge
            size = _cabs(amp, stacked_bad)
            bad |= ~(np.maximum(size[:lanes], size[lanes:]) <= scattering._RESCALE_LIMIT)
        bad |= stacked_bad[:lanes] | stacked_bad[lanes:]

        # No plain lane rescaled or folded, so every log-scale is 0 and
        # the factor of T is (1 / inc) * phase0, the same as that of R.
        k = kappas[0].real
        try:
            phase0 = cmath.exp(1j * k * cuts[0])
            phase_last = cmath.exp(-1j * k * cuts[-1])
        except (ValueError, OverflowError):
            phase0 = phase_last = 0j
            bad[:] = True
        inc = (amp[0][:lanes], amp[1][:lanes])
        factor = _cmul(_cdiv((1.0, 0.0), inc, bad), (phase0.real, phase0.imag))
        trans = _cmul(_cmul((1.0, 0.0), factor), (phase_last.real, phase_last.imag))
        refl = _cmul(_cmul((amp[0][lanes:], amp[1][lanes:]), factor), (phase0.real, phase0.imag))

    results = []
    columns = (part.tolist() for part in (*trans, *refl))
    for strength, plain, t_re, t_im, r_re, r_im in zip(strengths, (~bad).tolist(), *columns):
        if plain:
            results.append((complex(t_re, t_im), complex(r_re, r_im)))
            continue
        try:
            results.append(level(strength))
        except Exception as error:  # raised again where the level is read
            results.append(error)
    return results


def _shifts(rotor: ClockRotor, units: UnitsConfig) -> tuple[float, list[float]]:
    """The largest level shift j*hbar*omega and the shift of every level,
    ascending m."""
    scale = units.hbar * rotor.omega
    return rotor.j * scale, [float(m) * scale for m in rotor.levels.tolist()]


def _presolved(rotors: list[ClockRotor], units: UnitsConfig, bound: float, levels) -> dict:
    """The known dict a call starts with. The distinct shifts of every
    rotor whose coupling is within bound, keyed by float.hex in first-seen
    order, go to one lane batch when there are at least _LANE_BATCH_MIN of
    them; otherwise the dict is empty and _reading solves each level by
    the scalar sweep."""
    shifts: dict[str, float] = {}
    for rotor in rotors:
        largest, strengths = _shifts(rotor, units)
        if largest < bound:
            for strength in strengths:
                shifts.setdefault(strength.hex(), strength)
    if len(shifts) < _LANE_BATCH_MIN:
        return {}
    return dict(zip(shifts, levels(list(shifts.values()))))


def _reading(
    rotor: ClockRotor,
    units: UnitsConfig,
    bound: float,
    level: Callable[[float], tuple[complex, complex]],
    known: dict,
) -> MeasurementResult:
    """One reading. known holds (T, R), or the exception solving raised,
    keyed by the exact bits of a shift: a level whose shift is there takes
    its result from it, and every other level is solved once and added.

    Only measurement_simulation and measurement_series call this, so the
    coupling warning points at their caller.
    """
    largest, strengths = _shifts(rotor, units)
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
            stacklevel=3,
        )

    # float.hex keeps 0.0 and -0.0 apart, which == would equate.
    amplitudes = []
    for strength in strengths:
        key = strength.hex()
        if key not in known:
            known[key] = level(strength)
        solved = known[key]
        if isinstance(solved, Exception):
            raise solved
        amplitudes.append(solved)
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

    This is the one-row case of measurement_series, solved level by level
    by the scalar sweep, except that a coupling too strong for the energy
    margin raises CouplingTooStrongError.
    """
    bound, level, _ = _level_solver(potential, region, energy, units)
    return _reading(rotor, units, bound, level, {})


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
    read, the shifts of all rows within the margin go to one lane batch
    when there are at least _LANE_BATCH_MIN of them; otherwise each level
    is solved by the scalar sweep as its row is read. Either way a failure
    surfaces at the row and level where a row-by-row loop would raise it.
    """
    if halvings < 0:
        raise InvalidParameterError(f"halvings must be >= 0, got {halvings}")
    bound, level, levels = _level_solver(potential, region, energy, units)
    rotors, failure = [rotor], None
    try:
        for _ in range(halvings):
            # Doubling is exact; past the float range ClockRotor rejects tau.
            rotors.append(ClockRotor(rotor.N, rotors[-1].tau * 2.0))
    except InvalidParameterError as error:
        # Raised after the rows before it are read, as a row-by-row loop would.
        failure = error
    known = _presolved(rotors, units, bound, levels)
    rows: list[tuple[ClockRotor, MeasurementResult | None]] = []
    for rotor in rotors:
        try:
            result = _reading(rotor, units, bound, level, known)
        except CouplingTooStrongError:
            result = None
        rows.append((rotor, result))
    if failure is not None:
        raise failure
    return rows
