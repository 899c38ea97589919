"""Stationary scattering on piecewise-constant potentials.

Fixed-energy solutions are built by matching plane/evanescent-wave
expansions region by region. The sweep runs from the transmitted side
toward the incident side so that every coefficient is obtained
multiplicatively; a forward substitution would reconstruct the small
coefficient of the growing exponential inside a barrier by cancellation
and lose it for opaque stacks. Each region's expansion is anchored at its
own left edge, so exponentials are bounded by region widths rather than
absolute positions, and an explicit log-scale guard covers extremely
opaque stacks (products of barrier growth factors beyond float range)
and single barriers whose own growth factor is beyond float range.

A solution keeps the sweep's result, not the waves themselves: region
r's normalized expansion is built on demand, and the dwell and overlap
integrals build only the regions that overlap the clock region. The
right-incident state chi of the overlap integrals is the mirrored
potential's solution read at -z; its sweep runs over the solution's own
wavenumbers reversed, so one solve serves both states.

A clock's rotor levels need T and R of the potential shifted inside the
clock region by many shifts at one energy: _shifted_solver runs solve's
checks and sweep per shift, or for many shifts one batch of float64 lanes
that equals them bit for bit (_lanes). solve keeps the scalar sweep: it
walks one wave across up to hundreds of regions, where a one-lane batch
would be far slower.

Conventions: unit amplitude incident from the left, purely outgoing wave
on the right. Far to the left psi = e^{ikz} + R e^{-ikz}, far to the
right psi = T e^{ikz}.
"""

from __future__ import annotations

import bisect
import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidParameterError, TunnelClockError
from .potentials import (
    NATURAL_UNITS,
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
    _check_finite,
    _clock_cuts,
)

__all__ = [
    "RegionWave",
    "ScatteringSolution",
    "solve",
    "dwell_time",
    "overlap_integrals",
]

# Rescale stored coefficients once they exceed this during the sweep.
_RESCALE_LIMIT = 1e120

# Calls with at least this many shifts solve them as one lane batch;
# fewer run the scalar sweep one shift at a time.
# Measured on a 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6): a scalar
# shift of a double barrier costs 8.7 us and of a six-region stack
# 14.6 us; a lane costs 2.2 and 3.9 us plus 0.4 and 0.8 ms per batch, so
# the batch breaks even at 65 to 75 lanes.
_LANE_BATCH_MIN = 80


def _scaled_exp(coef: complex, exponent: complex) -> complex:
    """coef * exp(exponent) without overflowing intermediate exponentials.

    Safe when coef is tiny while Re(exponent) is large, as happens for the
    growing-exponential coefficient deep inside an opaque barrier.
    """
    if coef == 0:
        return 0j
    mag = abs(coef)
    return (coef / mag) * cmath.exp(exponent + math.log(mag))


def _abs2_exp(coef: complex, exponent: float) -> float:
    """|coef|^2 * exp(exponent), safe against intermediate overflow."""
    if coef == 0:
        return 0.0
    return math.exp(2.0 * math.log(abs(coef)) + exponent)


class RegionWave(NamedTuple):
    """Expansion A e^{i kappa (z - anchor)} + B e^{-i kappa (z - anchor)}.

    kappa is real for propagating regions and +iq for evanescent ones, so
    the A term always decays to the right and the B term always grows to
    the right inside a barrier.
    """

    anchor: float
    kappa: complex
    a: complex
    b: complex


@dataclass(frozen=True)
class ScatteringSolution:
    """T and R, plus the backward sweep's result that region waves are
    built from: the local wavenumbers, each region's stored coefficients
    at its left edge, the log-scales they were divided by, the incident
    coefficient inc and the phase e^{ik z_0} of the first breakpoint.

    Region 0 is (-inf, bp[0]), region r in 1..n is [bp[r-1], bp[r]) and
    region n+1 is [bp[n], inf).
    """

    energy: float
    wavenumber: float
    transmission: complex
    reflection: complex
    breakpoints: tuple[float, ...]
    units: UnitsConfig
    kappas: tuple[complex, ...]
    stored: tuple[tuple[complex, complex], ...]
    logscale: tuple[float, ...]
    inc: complex
    phase0: complex

    def wave(self, r: int) -> RegionWave:
        """Region r's expansion, normalized to unit incident amplitude and
        the global e^{ikz} phase convention.

        logscale[0] is the largest scale, so the exponential never
        overflows; it may underflow to zero in deep shadow.
        """
        bp = self.breakpoints
        f, b = self.stored[r]
        factor = math.exp(self.logscale[r] - self.logscale[0]) / self.inc * self.phase0
        anchor = bp[r - 1] if r else bp[0]
        return RegionWave(anchor, self.kappas[r], f * factor, b * factor)


def _free_wavenumber(energy: float, units: UnitsConfig) -> complex:
    """The free wavenumber k outside the potential.

    Raises InvalidParameterError for non-positive or non-finite energy and
    for a k that leaves the float range or underflows to zero.
    """
    if not (isinstance(energy, (int, float)) and math.isfinite(energy) and energy > 0):
        raise InvalidParameterError(f"energy must be positive and finite, got {energy}")
    k = math.sqrt(2.0 * units.mass * energy) / units.hbar
    if not math.isfinite(k):
        raise InvalidParameterError(
            f"energy {energy} gives a wavenumber beyond the float range"
        )
    if k == 0.0:
        raise InvalidParameterError(
            f"energy {energy} gives a wavenumber that underflows to zero"
        )
    return complex(k)


def _local_kappa(energy: float, height: float, units: UnitsConfig) -> complex:
    """Local wavenumber of a region: real where it propagates, +iq where
    it is evanescent. Every local wavenumber is checked here.

    Raises InvalidParameterError when the energy exactly equals the height
    (zero local wavenumber) and for a wavenumber that underflows to zero or
    leaves the float range.
    """
    if height == energy:
        raise InvalidParameterError(
            f"energy {energy} equals a region height; local wavenumber vanishes"
        )
    ksq = 2.0 * units.mass * (energy - height)
    kappa = math.sqrt(abs(ksq)) / units.hbar
    if kappa == 0.0:
        raise InvalidParameterError(
            f"energy {energy} gives a local wavenumber that underflows to zero"
        )
    if kappa == math.inf:
        raise InvalidParameterError(
            f"height {height} at energy {energy} gives a local wavenumber "
            "beyond the float range"
        )
    return complex(kappa, 0.0) if ksq > 0.0 else complex(0.0, kappa)


def _kappas(energy: float, heights, units: UnitsConfig) -> list[complex]:
    """Local wavenumbers of the regions, the free k at both ends."""
    k = _free_wavenumber(energy, units)
    return [k, *[_local_kappa(energy, v, units) for v in heights], k]


def _phase_range_error() -> InvalidParameterError:
    return InvalidParameterError("a phase k*z leaves the float range")


def _sweep(
    kappas: list[complex], bp: tuple[float, ...]
) -> tuple[list[tuple[complex, complex]], list[float]]:
    """Backward sweep: unit outgoing amplitude on the right, nothing incoming.

    Returns each region's (forward, backward) coefficients at its left
    edge, and the running log-scale they were divided by. Where a barrier's
    growth would overflow the exponential, the growth is folded into the
    log-scale before exponentiating; every other step keeps its bits.
    Raises InvalidParameterError where a region's width, its phase
    kappa*width or the wave's growth across it leaves the float range.
    """
    n = len(kappas) - 2
    stored: list[tuple[complex, complex]] = [(0j, 0j)] * (n + 2)
    logscale = [0.0] * (n + 2)
    amp_f, amp_b = 1.0 + 0j, 0j
    scale = 0.0
    stored[n + 1] = (amp_f, amp_b)
    for r in range(n, -1, -1):
        ratio = kappas[r + 1] / kappas[r]
        edge_f = 0.5 * ((1.0 + ratio) * amp_f + (1.0 - ratio) * amp_b)
        edge_b = 0.5 * ((1.0 - ratio) * amp_f + (1.0 + ratio) * amp_b)
        if r >= 1:
            width = bp[r] - bp[r - 1]
            if width == math.inf:
                # e^{-ik inf} is nan+nanj in cmath, with no error raised.
                raise InvalidParameterError("a region's width leaves the float range")
            try:
                amp_f = _scaled_exp(edge_f, -1j * kappas[r] * width)
                amp_b = _scaled_exp(edge_b, 1j * kappas[r] * width)
            except ValueError:
                # The exponential of an infinite phase.
                raise _phase_range_error() from None
            except OverflowError:
                # Only the forward term grows, by e^{q width} in a barrier.
                fold = kappas[r].imag * width + math.log(max(abs(edge_f), abs(edge_b)))
                amp_f = _scaled_exp(edge_f, -1j * kappas[r] * width - fold)
                amp_b = _scaled_exp(edge_b, 1j * kappas[r] * width - fold)
                scale += fold
        else:
            amp_f, amp_b = edge_f, edge_b
        peak = max(abs(amp_f), abs(amp_b))
        if peak > _RESCALE_LIMIT:
            if peak == math.inf:
                # e^{q width} of an infinite q*width, say.
                raise InvalidParameterError(
                    "the wave's growth across a region leaves the float range"
                )
            amp_f /= peak
            amp_b /= peak
            scale += math.log(peak)
        stored[r] = (amp_f, amp_b)
        logscale[r] = scale
    return stored, logscale


def _end_phases(k: float, bp: tuple[float, ...]) -> tuple[complex, complex]:
    """The phases e^{ik z_0} and e^{-ik z_n} of the outermost breakpoints."""
    try:
        return cmath.exp(1j * k * bp[0]), cmath.exp(-1j * k * bp[-1])
    except ValueError:
        # The exponential of an infinite phase.
        raise _phase_range_error() from None


def _amplitudes(stored, logscale, phase0: complex, phase_last: complex) -> tuple[complex, complex]:
    """T and R of a backward sweep, given its _end_phases.

    Raises TunnelClockError where the incident coefficient is zero, as
    matching at the edge of a tall, thin barrier can make it cancel to.
    """
    inc = stored[0][0]
    if inc == 0:
        raise TunnelClockError("the incident coefficient cancels to zero; T and R are undefined")
    factor_last = math.exp(logscale[-1] - logscale[0]) / inc * phase0
    transmission = stored[-1][0] * factor_last * phase_last
    reflection = stored[0][1] * (1.0 / inc * phase0) * phase0
    return transmission, reflection


def solve(
    potential: PiecewiseConstantPotential,
    energy: float,
    units: UnitsConfig = NATURAL_UNITS,
) -> ScatteringSolution:
    """Scatter a unit left-incident wave of the given energy.

    Raises InvalidParameterError for non-positive energy, an energy
    exactly equal to a region height (zero local wavenumber) and a
    wavenumber that underflows to zero or leaves the float range, and
    TunnelClockError where the incident coefficient cancels to zero.
    """
    kappas = _kappas(energy, potential.heights, units)
    return _solution(kappas, potential.breakpoints, float(energy), units)


def _solution(kappas, bp: tuple[float, ...], energy: float, units: UnitsConfig):
    """The solution of one backward sweep over the local wavenumbers."""
    k = kappas[0].real
    stored, logscale = _sweep(kappas, bp)
    phase0, phase_last = _end_phases(k, bp)
    transmission, reflection = _amplitudes(stored, logscale, phase0, phase_last)
    return ScatteringSolution(
        energy=energy,
        wavenumber=k,
        transmission=transmission,
        reflection=reflection,
        breakpoints=bp,
        units=units,
        kappas=tuple(kappas),
        stored=tuple(stored),
        logscale=tuple(logscale),
        inc=stored[0][0],
        phase0=phase0,
    )


def _shifted_solver(potential: PiecewiseConstantPotential, region: ClockRegion, energy: float,
                    units: UnitsConfig) -> tuple[float, Callable[[list[float]], list]]:
    """The shift bound, and a function from a list of shifts of the
    potential inside the clock region to the (T, R) of each; from
    _LANE_BATCH_MIN shifts up as lanes. The function raises what solving
    the first failing shift in the list raises, in either form.

    The bound is the smallest energy margin: the energy itself and |V - E|
    of every interval inside the region, above or below E. The cut list,
    solve's energy checks and the wavenumbers outside the region are
    computed once; per shift only the intervals inside it get shifted
    heights, with the finiteness check of a potential's heights and
    solve's wavenumber checks, before solve's backward sweep.
    """
    cuts, bases, inside = _clock_cuts(potential, region)
    k = _free_wavenumber(energy, units)
    kappas = [k, *[None if hit else _local_kappa(energy, base, units)
                   for base, hit in zip(bases, inside)], k]
    moved = [(r, base) for r, (base, hit) in enumerate(zip(bases, inside), 1) if hit]

    def shifted(strength: float) -> tuple[complex, complex]:
        heights = [base + strength for _, base in moved]
        _check_finite(heights)
        for (r, _), height in zip(moved, heights):
            kappas[r] = _local_kappa(energy, height, units)
        stored, logscale = _sweep(kappas, cuts)
        return _amplitudes(stored, logscale, *_end_phases(k.real, cuts))

    def solver(strengths: list[float]) -> list:
        if len(strengths) < _LANE_BATCH_MIN:
            return [shifted(strength) for strength in strengths]
        return _lanes(kappas, moved, cuts, energy, units, strengths, shifted)

    return min([energy, *(abs(base - energy) for _, base in moved)]), solver


def _lanes(kappas, moved, cuts, energy, units, strengths, shifted) -> list:
    """The (T, R) of each shift; the first shift whose solve fails
    raises, as in the scalar loop.

    The L shifts run as float64 lanes through shifted's checks, sweep and
    amplitudes with CPython's scalar rules (see _arith), so every lane
    equals shifted's result bit for bit. kappas holds the wavenumbers
    outside the region, and moved the (index, unshifted height) of each
    interval inside it. The sweep's forward and backward terms run
    stacked in one array of 2L elements, forward first.

    A lane leaves this plain path where shifted would raise or branch: a
    shifted height that is not finite or equals the energy, a wavenumber
    that is zero or infinite, a zero divisor, an abs or exponential that
    raises (the sweep's fold), or a peak past the rescale limit. Those
    lanes go through shifted itself, in list order, so the first of them
    that raises is the first shift the scalar loop raises for. An end
    phase that raises sends every lane that way.
    """
    # numpy only here, so solve and its callers run without it
    import numpy as np

    from ._arith import _cabs, _cadd, _cdiv, _cexp, _cmul, _each

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
                # _scaled_exp(edge, -+1j * kappa * width)
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
            bad |= ~(np.maximum(size[:lanes], size[lanes:]) <= _RESCALE_LIMIT)
        bad |= stacked_bad[:lanes] | stacked_bad[lanes:]

        # No plain lane rescaled or folded, so every log-scale is 0 and
        # the factor of T is (1 / inc) * phase0, the same as that of R.
        try:
            phase0, phase_last = _end_phases(kappas[0].real, cuts)
        except InvalidParameterError:
            phase0 = phase_last = 0j
            bad[:] = True
        inc = (amp[0][:lanes], amp[1][:lanes])
        factor = _cmul(_cdiv((1.0, 0.0), inc, bad), (phase0.real, phase0.imag))
        trans = _cmul(_cmul((1.0, 0.0), factor), (phase_last.real, phase_last.imag))
        refl = _cmul(_cmul((amp[0][lanes:], amp[1][lanes:]), factor), (phase0.real, phase0.imag))

    columns = (part.tolist() for part in (*trans, *refl))
    return [(complex(t_re, t_im), complex(r_re, r_im)) if plain else shifted(strength)
            for strength, plain, t_re, t_im, r_re, r_im
            in zip(strengths, (~bad).tolist(), *columns)]


def _overlaps(bp: tuple[float, ...], region: ClockRegion):
    """(r, lo, hi) for every region r that overlaps the clock region, in
    order, with [lo, hi] their intersection."""
    z1, z2 = region.z1, region.z2
    last = len(bp)
    for r in range(bisect.bisect_right(bp, z1), bisect.bisect_left(bp, z2) + 1):
        lo = max(bp[r - 1], z1) if r else z1
        hi = min(bp[r], z2) if r < last else z2
        yield r, lo, hi


def _density_integral(rw: RegionWave, u1: float, u2: float) -> float:
    """Integral of |psi|^2 over local coordinates [u1, u2] of one region."""
    a, b, kappa = rw.a, rw.b, rw.kappa
    du = u2 - u1
    if kappa.imag == 0.0:
        kr = kappa.real
        # |A|^2 + |B|^2 plus an oscillatory cross term; the half-angle form
        # of e^{2ik u2} - e^{2ik u1} avoids cancellation for small widths.
        try:
            cross = (
                2.0
                * math.sin(kr * du)
                / kr
                * (a * b.conjugate() * cmath.exp(1j * kr * (u1 + u2))).real
            )
        except (ValueError, OverflowError):
            # The sine or exponential of an infinite phase.
            raise _phase_range_error() from None
        return (abs(a) ** 2 + abs(b) ** 2) * du + cross
    q = kappa.imag
    # Evanescent: |A|^2 e^{-2qu} + |B|^2 e^{2qu} + 2 Re(A conj(B)).
    term_a = _abs2_exp(a, -2.0 * q * u1) * (-math.expm1(-2.0 * q * du)) / (2.0 * q)
    if 2.0 * q * du < 1.0:
        term_b = _abs2_exp(b, 2.0 * q * u1) * math.expm1(2.0 * q * du) / (2.0 * q)
    else:
        term_b = (_abs2_exp(b, 2.0 * q * u2) - _abs2_exp(b, 2.0 * q * u1)) / (2.0 * q)
    cross = 2.0 * (a * b.conjugate()).real * du
    return term_a + term_b + cross


def _exp_integral(log_coef: complex, rate: complex, u1: float, u2: float) -> complex:
    """Integral of exp(log_coef + rate * u) over [u1, u2].

    rate is zero, real or imaginary. The half-width form
    e^{mid} 2 sinh(half) / rate keeps small widths and oscillating terms
    free of cancellation; a large real half-width factors the larger
    endpoint into the exponent, so nothing overflows on the way.
    """
    if rate == 0:
        return cmath.exp(log_coef) * (u2 - u1)
    half = 0.5 * rate * (u2 - u1)
    mid = log_coef + 0.5 * rate * (u1 + u2)
    try:
        if abs(half.real) < 1.0:
            return cmath.exp(mid) * 2.0 * cmath.sinh(half) / rate
        sign = 1.0 if half.real > 0 else -1.0
        far_end = cmath.exp(mid + sign * half)
        return sign * far_end * (1.0 - cmath.exp(-2.0 * sign * half)) / rate
    except (ValueError, OverflowError):
        # An infinite phase, or an exponent past the float range.
        raise _phase_range_error() from None


def _log_terms(w: RegionWave) -> list[tuple[complex, int]]:
    """(log of coefficient, sign of its exponent) of each nonzero term."""
    return [(cmath.log(c), s) for c, s in ((w.a, 1), (w.b, -1)) if c != 0]


def _product_integral(
    w1: RegionWave,
    terms1: list[tuple[complex, int]],
    w2: RegionWave,
    terms2: list[tuple[complex, int]],
    z1: float,
    z2: float,
) -> complex:
    """Integral of w1(z) * w2(z) (no conjugate) over [z1, z2] in one region,
    given each wave's _log_terms.

    Both expansions share kappa; each keeps its own anchor. Every product
    of two exponentials is integrated from the logs of its coefficients,
    so a tiny coefficient against a huge exponential neither underflows
    nor overflows.
    """
    ik = 1j * w1.kappa
    shift = ik * (w1.anchor - w2.anchor)
    u1, u2 = z1 - w1.anchor, z2 - w1.anchor
    total = 0j
    for log1, s1 in terms1:
        for log2, s2 in terms2:
            log_coef = log1 + log2 + s2 * shift
            total += _exp_integral(log_coef, (s1 + s2) * ik, u1, u2)
    return total


def _mirrored(rw: RegionWave) -> RegionWave:
    """The expansion of z -> rw(-z)."""
    return RegionWave(-rw.anchor, rw.kappa, rw.b, rw.a)


def overlap_integrals(
    solution: ScatteringSolution, region: ClockRegion
) -> tuple[float, complex, complex]:
    """Integrals of |psi|^2, psi^2 and psi*chi over the region (the last
    two without conjugates).

    psi is the left-incident solution and chi(z) = mirror(-z) the unit wave
    incident from the right, where mirror solves the mirrored potential by
    one backward sweep over psi's wavenumbers reversed and its breakpoints
    negated and reversed. Region r of psi is region n+1-r of mirror, so the
    expansions pair up one to one. Only overlapping regions are built, each
    once; the density sum is dwell_time's, term for term.
    """
    bp = solution.breakpoints
    mirror_bp = tuple(-z for z in reversed(bp))
    mirror = _solution(solution.kappas[::-1], mirror_bp, solution.energy, solution.units)
    density = 0.0
    psi2 = psichi = 0j
    for r, lo, hi in _overlaps(bp, region):
        rw = solution.wave(r)
        chi = _mirrored(mirror.wave(len(bp) - r))
        terms = _log_terms(rw)
        density += _density_integral(rw, lo - rw.anchor, hi - rw.anchor)
        psi2 += _product_integral(rw, terms, rw, terms, lo, hi)
        psichi += _product_integral(rw, terms, chi, _log_terms(chi), lo, hi)
    return density, psi2, psichi


def dwell_time(solution: ScatteringSolution, region: ClockRegion) -> float:
    """Dwell time (m / (hbar k)) * integral of |psi|^2 over the region.

    Uses the exact per-region antiderivatives of the wave expansions, so
    the result is additive over adjacent regions up to rounding. Only the
    regions that overlap the clock region are built.
    """
    total = 0.0
    for r, lo, hi in _overlaps(solution.breakpoints, region):
        rw = solution.wave(r)
        total += _density_integral(rw, lo - rw.anchor, hi - rw.anchor)
    u = solution.units
    return u.mass / (u.hbar * solution.wavenumber) * total

