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

Conventions: unit amplitude incident from the left, purely outgoing wave
on the right. Far to the left psi = e^{ikz} + R e^{-ikz}, far to the
right psi = T e^{ikz}.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

from .errors import (
    DegenerateEnergyError,
    InvalidParameterError,
    UndefinedPhaseError,
)
from .potentials import (
    NATURAL_UNITS,
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
    _check_finite,
)

__all__ = [
    "RegionWave",
    "ScatteringSolution",
    "PhasePair",
    "solve",
    "wavefunction_at",
    "wavefunction_derivative_at",
    "dwell_time",
    "overlap_integrals",
    "phases",
    "transmission_phase",
    "reflection_phase",
]

# Rescale stored coefficients once they exceed this during the sweep.
_RESCALE_LIMIT = 1e120


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


@dataclass(frozen=True)
class RegionWave:
    """Expansion A e^{i kappa (z - anchor)} + B e^{-i kappa (z - anchor)}.

    Valid on [lo, hi); kappa is real for propagating regions and +iq for
    evanescent ones, so the A term always decays to the right and the B
    term always grows to the right inside a barrier.
    """

    lo: float
    hi: float
    anchor: float
    kappa: complex
    a: complex
    b: complex

    def value(self, z: float) -> complex:
        u = z - self.anchor
        return _scaled_exp(self.a, 1j * self.kappa * u) + _scaled_exp(
            self.b, -1j * self.kappa * u
        )

    def derivative(self, z: float) -> complex:
        u = z - self.anchor
        fwd = _scaled_exp(self.a, 1j * self.kappa * u)
        bwd = _scaled_exp(self.b, -1j * self.kappa * u)
        return 1j * self.kappa * (fwd - bwd)


@dataclass(frozen=True)
class ScatteringSolution:
    energy: float
    wavenumber: float
    transmission: complex
    reflection: complex
    regions: tuple[RegionWave, ...]
    breakpoints: tuple[float, ...]
    units: UnitsConfig


@dataclass(frozen=True)
class PhasePair:
    """Principal-branch arguments of the transmission and reflection amplitudes."""

    transmission: float
    reflection: float


def _local_kappa(energy: float, height: float, units: UnitsConfig) -> complex:
    ksq = 2.0 * units.mass * (energy - height)
    if ksq > 0.0:
        return complex(math.sqrt(ksq) / units.hbar, 0.0)
    return complex(0.0, math.sqrt(-ksq) / units.hbar)


def _kappas(energy: float, heights, units: UnitsConfig) -> list[complex]:
    """Local wavenumbers of the regions, the free k at both ends.

    Raises DegenerateEnergyError when the energy exactly equals a region
    height (zero local wavenumber) and InvalidParameterError for
    non-positive energy, an infinite free wavenumber or a local one that
    underflows to zero.
    """
    if not (isinstance(energy, (int, float)) and math.isfinite(energy) and energy > 0):
        raise InvalidParameterError(f"energy must be positive and finite, got {energy}")
    if energy in heights:
        raise DegenerateEnergyError(
            f"energy {energy} equals a region height; local wavenumber vanishes"
        )
    k = math.sqrt(2.0 * units.mass * energy) / units.hbar
    if not math.isfinite(k):
        raise InvalidParameterError(
            f"energy {energy} gives a wavenumber beyond the float range"
        )
    kappas = [complex(k)]
    kappas.extend(_local_kappa(energy, v, units) for v in heights)
    kappas.append(complex(k))
    if 0j in kappas:
        raise InvalidParameterError(
            f"energy {energy} gives a local wavenumber that underflows to zero"
        )
    return kappas


def _sweep(
    kappas: list[complex], bp: tuple[float, ...]
) -> tuple[list[tuple[complex, complex]], list[float]]:
    """Backward sweep: unit outgoing amplitude on the right, nothing incoming.

    Returns each region's (forward, backward) coefficients at its left
    edge, and the running log-scale they were divided by. Where a barrier's
    growth would overflow the exponential, the growth is folded into the
    log-scale before exponentiating; every other step keeps its bits.
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
            try:
                amp_f = _scaled_exp(edge_f, -1j * kappas[r] * width)
                amp_b = _scaled_exp(edge_b, 1j * kappas[r] * width)
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
            amp_f /= peak
            amp_b /= peak
            scale += math.log(peak)
        stored[r] = (amp_f, amp_b)
        logscale[r] = scale
    return stored, logscale


def _amplitudes(
    kappas: list[complex],
    bp: tuple[float, ...],
    stored: list[tuple[complex, complex]],
    logscale: list[float],
) -> tuple[complex, complex]:
    """T and R of a backward sweep, with the factors solve normalizes the
    outermost regions by."""
    k = kappas[0].real
    inc = stored[0][0]
    phase0 = cmath.exp(1j * k * bp[0])
    factor_last = math.exp(logscale[-1] - logscale[0]) / inc * phase0
    transmission = stored[-1][0] * factor_last * cmath.exp(-1j * k * bp[-1])
    reflection = stored[0][1] * (1.0 / inc * phase0) * cmath.exp(1j * k * bp[0])
    return transmission, reflection


def _transmission_reflection(
    heights: list[float], breakpoints: tuple[float, ...], energy: float, units: UnitsConfig
) -> tuple[complex, complex]:
    """T and R of solve on these heights, bit for bit, without building
    the potential, the region waves or the solution.

    The heights get the potential's finiteness check and the energy gets
    solve's checks; the breakpoints must already be strictly increasing.
    """
    _check_finite(heights)
    kappas = _kappas(energy, heights, units)
    stored, logscale = _sweep(kappas, breakpoints)
    return _amplitudes(kappas, breakpoints, stored, logscale)


def solve(
    potential: PiecewiseConstantPotential,
    energy: float,
    units: UnitsConfig = NATURAL_UNITS,
) -> ScatteringSolution:
    """Scatter a unit left-incident wave of the given energy.

    Raises DegenerateEnergyError when the energy exactly equals a region
    height (zero local wavenumber) and InvalidParameterError for
    non-positive energy.
    """
    kappas = _kappas(energy, potential.heights, units)
    bp = potential.breakpoints
    n = len(potential.heights)
    k = kappas[0].real
    stored, logscale = _sweep(kappas, bp)

    # Normalize to unit incident amplitude and to the global e^{ikz} phase
    # convention. logscale[0] is the largest scale, so the exponentials
    # below never overflow; they may underflow to zero in deep shadow.
    inc = stored[0][0]
    phase0 = cmath.exp(1j * k * bp[0])
    regions = []
    for r in range(n + 2):
        f, b = stored[r]
        factor = math.exp(logscale[r] - logscale[0]) / inc * phase0
        if r == 0:
            lo, hi, anchor = -math.inf, bp[0], bp[0]
        elif r <= n:
            lo, hi, anchor = bp[r - 1], bp[r], bp[r - 1]
        else:
            lo, hi, anchor = bp[-1], math.inf, bp[-1]
        regions.append(RegionWave(lo, hi, anchor, kappas[r], f * factor, b * factor))

    transmission, reflection = _amplitudes(kappas, bp, stored, logscale)
    return ScatteringSolution(
        energy=float(energy),
        wavenumber=k,
        transmission=transmission,
        reflection=reflection,
        regions=tuple(regions),
        breakpoints=bp,
        units=units,
    )


def _region_index(solution: ScatteringSolution, z: float) -> int:
    return bisect.bisect_right(solution.breakpoints, z)


def wavefunction_at(solution: ScatteringSolution, z: float) -> complex:
    """psi(z), using the half-open region convention at breakpoints."""
    return solution.regions[_region_index(solution, z)].value(z)


def wavefunction_derivative_at(solution: ScatteringSolution, z: float) -> complex:
    """d psi / dz at z, same region convention as wavefunction_at."""
    return solution.regions[_region_index(solution, z)].derivative(z)


def _density_integral(rw: RegionWave, u1: float, u2: float) -> float:
    """Integral of |psi|^2 over local coordinates [u1, u2] of one region."""
    a, b, kappa = rw.a, rw.b, rw.kappa
    du = u2 - u1
    if kappa.imag == 0.0:
        kr = kappa.real
        # |A|^2 + |B|^2 plus an oscillatory cross term; the half-angle form
        # of e^{2ik u2} - e^{2ik u1} avoids cancellation for small widths.
        cross = (
            2.0
            * math.sin(kr * du)
            / kr
            * (a * b.conjugate() * cmath.exp(1j * kr * (u1 + u2))).real
        )
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
    if abs(half.real) < 1.0:
        return cmath.exp(mid) * 2.0 * cmath.sinh(half) / rate
    sign = 1.0 if half.real > 0 else -1.0
    far_end = cmath.exp(mid + sign * half)
    return sign * far_end * (1.0 - cmath.exp(-2.0 * sign * half)) / rate


def _product_integral(w1: RegionWave, w2: RegionWave, z1: float, z2: float) -> complex:
    """Integral of w1(z) * w2(z) (no conjugate) over [z1, z2] in one region.

    Both expansions share kappa; each keeps its own anchor. Every product
    of two exponentials is integrated from the logs of its coefficients,
    so a tiny coefficient against a huge exponential neither underflows
    nor overflows.
    """
    ik = 1j * w1.kappa
    shift = ik * (w1.anchor - w2.anchor)
    u1, u2 = z1 - w1.anchor, z2 - w1.anchor
    total = 0j
    for c1, s1 in ((w1.a, 1), (w1.b, -1)):
        for c2, s2 in ((w2.a, 1), (w2.b, -1)):
            if c1 != 0 and c2 != 0:
                log_coef = cmath.log(c1) + cmath.log(c2) + s2 * shift
                total += _exp_integral(log_coef, (s1 + s2) * ik, u1, u2)
    return total


def _mirrored(rw: RegionWave) -> RegionWave:
    """The expansion of z -> rw(-z)."""
    return RegionWave(-rw.hi, -rw.lo, -rw.anchor, rw.kappa, rw.b, rw.a)


def overlap_integrals(
    solution: ScatteringSolution,
    mirrored: ScatteringSolution,
    region: ClockRegion,
) -> tuple[complex, complex]:
    """Integrals of psi^2 and psi*chi over the region (no conjugates).

    psi is the left-incident solution; mirrored must solve the reflected
    potential at the same energy, so chi(z) = mirrored psi(-z) is the unit
    wave incident from the right. Region r of psi is region n+1-r of the
    mirrored solution, so the two expansions pair up one to one.
    """
    psi2 = psichi = 0j
    for rw, mw in zip(solution.regions, reversed(mirrored.regions)):
        lo = max(rw.lo, region.z1)
        hi = min(rw.hi, region.z2)
        if hi <= lo:
            continue
        psi2 += _product_integral(rw, rw, lo, hi)
        psichi += _product_integral(rw, _mirrored(mw), lo, hi)
    return psi2, psichi


def dwell_time(solution: ScatteringSolution, region: ClockRegion) -> float:
    """Dwell time (m / (hbar k)) * integral of |psi|^2 over the region.

    Uses the exact per-region antiderivatives of the wave expansions, so
    the result is additive over adjacent regions up to rounding.
    """
    total = 0.0
    for rw in solution.regions:
        lo = max(rw.lo, region.z1)
        hi = min(rw.hi, region.z2)
        if hi <= lo:
            continue
        total += _density_integral(rw, lo - rw.anchor, hi - rw.anchor)
    u = solution.units
    return u.mass / (u.hbar * solution.wavenumber) * total


def transmission_phase(solution: ScatteringSolution) -> float:
    """Principal-branch argument of T; error if T is exactly zero."""
    if solution.transmission == 0:
        raise UndefinedPhaseError("transmission amplitude is exactly zero")
    return cmath.phase(solution.transmission)


def reflection_phase(solution: ScatteringSolution) -> float:
    """Principal-branch argument of R; error if R is exactly zero."""
    if solution.reflection == 0:
        raise UndefinedPhaseError("reflection amplitude is exactly zero")
    return cmath.phase(solution.reflection)


def phases(solution: ScatteringSolution) -> PhasePair:
    """Both principal-branch phases; error if either amplitude is exactly zero."""
    return PhasePair(transmission_phase(solution), reflection_phase(solution))
