"""Exact transmission amplitude and clock times for the symmetric double
barrier, with opaque-limit and wide-barrier asymptotics.

All expressions are evaluated in a form scaled by e^{-2qa}: cosh(2qa) and
sinh(2qa) never appear directly, only (1 +- e^{-4qa})/2, and purely
algebraic terms carry an explicit e^{-2qa} factor. Ratios such as the
clock times are invariant under this common scaling, so they stay finite
and accurate deep into the opaque regime where the raw auxiliaries would
overflow (2qa of a few hundred and beyond).

The formulas run over float64 arrays, one element per parameter set:
``grid`` evaluates a whole sweep in one pass, and ``times``,
``perturbed_amplitude`` and ``near_resonance`` run the same code on
arrays of length one. The arrays round like scalar CPython arithmetic
(see ``_arith``), so each element equals, bit for bit, what that
parameter set alone gives, and the 17-digit CSV does not depend on how
many points are evaluated at once. Where the scalar arithmetic would
raise, the set is marked in a mask instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._arith import _cabs, _cdiv, _cexp, _cmul, _csquare, _each
from .errors import (
    InvalidParameterError,
    InvalidPerturbationError,
    OpaqueUnderflowError,
)
from .potentials import NATURAL_UNITS, UnitsConfig

__all__ = [
    "DoubleBarrierParams",
    "DoubleBarrierTimes",
    "DoubleBarrierGrid",
    "grid",
    "perturbed_amplitude",
    "times",
    "opaque_limit_gap",
    "asymptotic_agreement",
    "near_resonance",
    "RESONANCE_DENOMINATOR_CUTOFF",
    "NEAR_RESONANCE_CUTOFF",
]

# The wide-barrier asymptotic denominator vanishes at transmission
# resonances; within this relative distance of zero the asymptotic value
# is reported as NaN (a resonance marker) instead of a number.
RESONANCE_DENOMINATOR_CUTOFF = 1e-6

# Proximity below which a geometry counts as near a transmission
# resonance for reporting purposes (sweep flag columns, peak exclusion in
# cross-panel comparisons). The inter-barrier enhancement factor goes like
# 1/proximity^2, so 0.03 marks enhancements above ~1100. Calibrated so the
# windows where a wider barrier's resonance peak overtakes a narrower one
# (proximity up to ~0.013 at the bundled preset parameters) are covered
# with margin, while plateau points used for off-resonance fits (proximity
# ~0.045) are not flagged.
NEAR_RESONANCE_CUTOFF = 0.03


@dataclass(frozen=True)
class DoubleBarrierParams:
    """Symmetric double barrier in the tunneling regime: 0 < E < V0."""

    V0: float
    a: float
    d: float
    E: float
    units: UnitsConfig = field(default_factory=UnitsConfig)

    def __post_init__(self):
        vals = (self.V0, self.a, self.d, self.E)
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
            raise InvalidParameterError("double barrier parameters must be finite numbers")
        if not (self.a > 0 and self.d > 0):
            raise InvalidParameterError(
                f"barrier width a and gap d must be positive, got a={self.a}, d={self.d}"
            )
        if not (0 < self.E < self.V0):
            raise InvalidParameterError(
                f"tunneling regime requires 0 < E < V0, got E={self.E}, V0={self.V0}"
            )

    @property
    def k(self) -> float:
        """Exterior wavenumber sqrt(2 m E) / hbar."""
        return math.sqrt(2.0 * self.units.mass * self.E) / self.units.hbar

    @property
    def q(self) -> float:
        """Barrier decay constant sqrt(2 m (V0 - E)) / hbar."""
        return math.sqrt(2.0 * self.units.mass * (self.V0 - self.E)) / self.units.hbar

    def float_range_error(self, quantity: str = "times") -> InvalidParameterError:
        """The error for a closed-form quantity that leaves the float range here."""
        return InvalidParameterError(
            f"closed-form {quantity} leave the float range at E={self.E}, "
            f"V0={self.V0}, a={self.a}, d={self.d}"
        )


@dataclass(frozen=True)
class DoubleBarrierTimes:
    """Clock times of the double barrier plus limiting values.

    t_whole is the clock time for the full region (0, 2a+d), which also
    equals the dwell time by symmetry; t_between and t_barriers are the
    contributions of the gap and of the two barriers; t_opaque is the
    common opaque limit of t_whole and t_barriers; t_between_asymptotic
    is the leading wide-barrier form of t_between (NaN marks a resonance
    of its denominator, or a form that leaves the float range).
    """

    t_whole: float
    t_between: float
    t_barriers: float
    t_opaque: float
    t_between_asymptotic: float


@dataclass(frozen=True)
class DoubleBarrierGrid:
    """Closed forms over a grid of parameter sets, one element per set.

    ok is False where the set leaves the tunneling regime, where times,
    perturbed_amplitude, abs(amplitude) ** 2 or near_resonance would
    raise for it, or where a time is not finite. The other arrays hold
    meaningless values there.
    """

    t_whole: np.ndarray
    t_between: np.ndarray
    t_barriers: np.ndarray
    t_opaque: np.ndarray
    trans_prob: np.ndarray
    proximity: np.ndarray
    ok: np.ndarray


class _Terms(NamedTuple):
    """sin pd and cos pd, and cosh 2qa, sinh 2qa and 1 scaled by e^{-2qa}."""

    sin: np.ndarray
    cos: np.ndarray
    ch: np.ndarray
    sh: np.ndarray
    nh: np.ndarray


def _arrays(*values) -> list[np.ndarray]:
    """The values as float64 arrays of one common length (at least 1)."""
    arrays = np.broadcast_arrays(*(np.asarray(v, float) for v in values))
    return [np.atleast_1d(v) for v in arrays]


def _each_finite(function, x: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """math.sin or math.cos per element; marks bad where x is infinite,
    where they raise."""
    infinite = np.isinf(x)
    bad |= infinite
    return _each(function, np.where(infinite, np.nan, x))


# Float pow with exponent 2, as x ** 2 computes it.
_SQUARE = (2.0).__rpow__


def _square(x: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """x ** 2 per element; marks bad where it overflows, where it raises.

    Below 1e154 the square cannot overflow, so only the elements above
    take the checked per-element path.
    """
    large = ~(np.abs(x) < 1e154)
    y = _each(_SQUARE, np.where(large, 0.0, x))
    for i in np.flatnonzero(large):
        try:
            y[i] = float(x[i]) ** 2
        except OverflowError:
            bad[i] = True
    return y


def _terms(p, q, a, d, bad: np.ndarray) -> _Terms:
    x = _each(math.exp, -4.0 * q * a)
    phase = p * d
    return _Terms(
        _each_finite(math.sin, phase, bad),
        _each_finite(math.cos, phase, bad),
        0.5 * (1.0 + x),
        0.5 * (1.0 - x),
        _each(math.exp, -2.0 * q * a),
    )


def _scaled_alpha_beta(k, p, q, t: _Terms):
    """Amplitude components alpha_m, beta_m scaled by e^{-2qa}.

    p is the gap wavenumber and q the barrier decay constant, both already
    shifted by the coupling; k is the fixed exterior wavenumber; t holds
    the terms of p and q.
    """
    alpha = 2.0 * k * q * (2.0 * p * q * t.cos * t.ch + (q * q - p * p) * t.sin * t.sh)
    beta = (
        -(k * k + q * q) * (p * p + q * q) * t.sin * t.nh
        + 2.0 * p * q * (q * q - k * k) * t.cos * t.sh
        + (q * q - p * p) * (q * q - k * k) * t.sin * t.ch
    )
    return alpha, beta


def _scaled_gammas(k, q, a, d, t: _Terms, bad: np.ndarray):
    """Zero-coupling derivatives of (alpha, beta), scaled by e^{-2qa}.

    gamma1 = d beta / d p, gamma2 = d alpha / d p (gap wavenumber),
    gamma3 = d beta / d q, gamma4 = d alpha / d q (barrier decay),
    all evaluated at p = k; t holds the terms of k and q.
    """
    ch, sh, nh = t.ch, t.sh, t.nh
    k2, q2 = k * k, q * q
    sin_kd, cos_kd = t.sin, t.cos
    sum2 = _square(q2 + k2, bad)
    diff2 = _square(q2 - k2, bad)
    g1 = (
        (-2.0 * k * (q2 + k2) * sin_kd - d * sum2 * cos_kd) * nh
        + 2.0 * q * (q2 - k2) * cos_kd * sh
        - 2.0 * q * k * d * (q2 - k2) * sin_kd * sh
        - 2.0 * k * (q2 - k2) * sin_kd * ch
        + d * diff2 * cos_kd * ch
    )
    g2 = (
        2.0
        * k
        * q
        * (
            2.0 * q * cos_kd * ch
            - 2.0 * q * k * d * sin_kd * ch
            - 2.0 * k * sin_kd * sh
            + d * (q2 - k2) * cos_kd * sh
        )
    )
    g3 = (
        -4.0 * q * (q2 + k2) * sin_kd * nh
        + 2.0 * k * (3.0 * q2 - k2) * cos_kd * sh
        + 4.0 * k * q * a * (q2 - k2) * cos_kd * ch
        + 4.0 * q * (q2 - k2) * sin_kd * ch
        + 2.0 * a * diff2 * sin_kd * sh
    )
    g4 = (
        2.0
        * k
        * (
            4.0 * k * q * cos_kd * ch
            + (3.0 * q2 - k2) * sin_kd * sh
            + 4.0 * k * q2 * a * cos_kd * sh
            + 2.0 * q * a * (q2 - k2) * sin_kd * ch
        )
    )
    return g1, g2, g3, g4


def _times(k, q, a, d, units: UnitsConfig, t: _Terms, bad: np.ndarray):
    """(t_whole, t_between, t_barriers, t_opaque, res_den), res_den being
    the resonance denominator of the wide-barrier form, NaN near a
    resonance and where that form would raise; marks bad where a time is
    not finite or its arithmetic would raise."""
    m, hbar = units.mass, units.hbar
    alpha, beta = _scaled_alpha_beta(k, k, q, t)
    g1, g2, g3, g4 = _scaled_gammas(k, q, a, d, t, bad)
    h1 = alpha * g1 - beta * g2
    h2 = alpha * g3 - beta * g4
    denom = alpha * alpha + beta * beta
    t_between = -(m / (hbar * k)) * h1 / denom
    t_barriers = (m / (hbar * q)) * h2 / denom
    t_whole = t_between + t_barriers
    k2, q2 = k * k, q * q
    t_opaque = 2.0 * m * k / (hbar * q * (k2 + q2))
    # A zero divisor above, where the scalar arithmetic raises, leaves its
    # time infinite or NaN, so this check covers it.
    for value in (t_whole, t_between, t_barriers, t_opaque):
        bad |= ~np.isfinite(value)

    res_den = (k2 - q2) * t.sin - 2.0 * k * q * t.cos
    # The wide-barrier form takes sin 2kd, which raises where 2kd is
    # infinite, and divides by res_den ** 2. Where either fails the form
    # is NaN, like at a resonance, and the printed times stand. Its other
    # divisor, k2 + q2, is zero only where t_opaque is already not finite.
    far = ~(np.abs(res_den) < RESONANCE_DENOMINATOR_CUTOFF * (k2 + q2))
    usable = far & ~np.isinf(2.0 * k * d) & (res_den * res_den != 0.0)
    return t_whole, t_between, t_barriers, t_opaque, np.where(usable, res_den, np.nan)


def _asymptotic(k, q, d, units: UnitsConfig, t: _Terms, res_den) -> np.ndarray:
    """The wide-barrier form of t_between from the res_den of _times, NaN
    where that is; only for sets that _times did not mark bad."""
    m, hbar = units.mass, units.hbar
    k2, q2 = k * k, q * q
    numer = (
        2.0 * k * d * (k2 + q2)
        + 4.0 * k * q * t.sin * t.sin
        + (k2 - q2) * _each(math.sin, np.where(np.isnan(res_den), 0.0, 2.0 * k * d))
    )
    return (4.0 * m * q2 / hbar) * t.nh / (k2 + q2) * numer / (res_den * res_den)


def _amplitude(k, p, q, a, d, t: _Terms, bad: np.ndarray):
    """Transmission amplitude (real, imag) with the region (0, 2a+d)
    shifted to gap wavenumber p and barrier decay q; t holds their terms."""
    nh = t.nh
    # Denominator scaled by e^{-2qa}; the amplitude carries the inverse
    # factor explicitly, so nothing overflows for wide barriers.
    real = 2.0 * t.sin * (k * k + q * q) * (p * p + q * q) * nh
    mixed = 2.0 * p * q * t.cos + (p * p - q * q) * t.sin
    plain = 2.0 * p * q * t.cos - (p * p - q * q) * t.sin
    # k - 1j * q and q - 1j * k, with 1j * x taken as (0, 1) * (x, 0).
    iq, ik = _cmul((0.0, 1.0), (q, 0.0)), _cmul((0.0, 1.0), (k, 0.0))
    first = _cmul(_csquare((k - iq[0], 0.0 - iq[1]), bad), (mixed, 0.0))
    first = _cmul(_cmul(first, (nh, 0.0)), (nh, 0.0))
    second = _cmul(_csquare((q - ik[0], 0.0 - ik[1]), bad), (plain, 0.0))
    denom = (real - first[0] - second[0], 0.0 - first[1] - second[1])

    numer = _cmul((0.0, 8.0), (k, 0.0))
    for factor in (p, q, q):
        numer = _cmul(numer, (factor, 0.0))
    phase = _cmul(_cmul((-0.0, -1.0), (2.0 * a + d, 0.0)), (k, 0.0))
    numer = _cmul(_cmul(numer, _cexp(phase, bad)), (nh, 0.0))
    return _cdiv(numer, denom, bad)


def _proximity(k, q, d, bad: np.ndarray) -> np.ndarray:
    """|sin(kd - phi0)|: scaled distance from perfect-transmission spacing;
    marks bad where kd - phi0 is infinite.

    The resonance condition in the inter-barrier spacing d reads
    (k^2 - q^2) sin(kd) = 2kq cos(kd), i.e. sin(kd - phi0) = 0 with
    tan(phi0) = 2kq/(k^2 - q^2). Squared, this is the factor by which
    near-resonance terms are enhanced, so the proximity is directly the
    relevant smallness scale. Range [0, 1]; 0 exactly on resonance.
    """
    phi0 = _each(math.atan2, 2.0 * k * q, k * k - q * q)
    return np.abs(_each_finite(math.sin, k * d - phi0, bad))


def grid(V0, a, d, E, units: UnitsConfig = NATURAL_UNITS) -> DoubleBarrierGrid:
    """Times, transmission probability and resonance proximity at every
    parameter set of a grid.

    V0, a, d and E are floats or arrays of one length; each element of the
    result equals the point functions at that set bit for bit, and a set
    where they raise (out of the tunneling regime, or out of the float
    range) is marked in ok instead.
    """
    V0, a, d, E = _arrays(V0, a, d, E)
    m, hbar = units.mass, units.hbar
    with np.errstate(all="ignore"):
        ok = (np.isfinite(V0) & np.isfinite(a) & np.isfinite(d) & np.isfinite(E)
              & (a > 0) & (d > 0) & (0 < E) & (E < V0))
        # Sets outside the regime are evaluated at a stand-in and masked.
        V0, E = np.where(ok, V0, 2.0), np.where(ok, E, 1.0)
        a, d = np.where(ok, a, 1.0), np.where(ok, d, 1.0)
        bad = ~ok
        k = np.sqrt(2.0 * m * E) / hbar
        q = np.sqrt(2.0 * m * (V0 - E)) / hbar
        t = _terms(k, q, a, d, bad)
        t_whole, t_between, t_barriers, t_opaque, _ = _times(k, q, a, d, units, t, bad)
        trans_prob = _square(_cabs(_amplitude(k, k, q, a, d, t, bad), bad), bad)
        proximity = _proximity(k, q, d, bad)
    return DoubleBarrierGrid(
        t_whole, t_between, t_barriers, t_opaque, trans_prob, proximity, ~bad
    )


def _shifted_wavenumbers(params: DoubleBarrierParams, coupling: float) -> tuple[float, float]:
    """Gap and barrier wavenumbers with the coupling added everywhere inside.

    The coupling shifts the potential on the whole region (0, 2a+d): the
    gap floor rises to the coupling value and the barriers to V0 plus it.
    """
    m, hbar = params.units.mass, params.units.hbar
    gap = params.E - coupling
    bar = params.V0 + coupling - params.E
    if not (gap > 0 and bar > 0):
        raise InvalidPerturbationError(
            f"coupling {coupling} leaves the tunneling regime "
            f"(need 0 < E - coupling and 0 < V0 + coupling - E)"
        )
    return math.sqrt(2.0 * m * gap) / hbar, math.sqrt(2.0 * m * bar) / hbar


def perturbed_amplitude(params: DoubleBarrierParams, coupling: float = 0.0) -> complex:
    """Transmission amplitude with the whole region (0, 2a+d) shifted by coupling."""
    p, q = _shifted_wavenumbers(params, coupling)
    k, p, q, a, d = _arrays(params.k, p, q, params.a, params.d)
    bad = np.zeros(1, bool)
    with np.errstate(all="ignore"):
        re, im = _amplitude(k, p, q, a, d, _terms(p, q, a, d, bad), bad)
    if bad[0]:
        raise params.float_range_error("amplitude values")
    return complex(re[0], im[0])


def times(params: DoubleBarrierParams) -> DoubleBarrierTimes:
    """All closed-form clock times for the double barrier.

    Every ratio is formed from e^{-2qa}-scaled auxiliaries, so the common
    growth factor cancels exactly and the times stay accurate for wide
    barriers. t_whole = t_between + t_barriers holds identically.

    Raises InvalidParameterError where the times leave the float range:
    barriers so tall that the auxiliaries overflow, energies so small that
    their denominator vanishes, or wavenumbers that are not finite.
    """
    k, q, a, d = _arrays(params.k, params.q, params.a, params.d)
    bad = np.zeros(1, bool)
    with np.errstate(all="ignore"):
        t = _terms(k, q, a, d, bad)
        *values, res_den = _times(k, q, a, d, params.units, t, bad)
        if bad[0]:
            raise params.float_range_error()
        values.append(_asymptotic(k, q, d, params.units, t, res_den))
    return DoubleBarrierTimes(*(float(v[0]) for v in values))


def opaque_limit_gap(params: DoubleBarrierParams) -> float:
    """Relative distance of t_whole from its opaque limit."""
    t = times(params)
    return abs(t.t_whole - t.t_opaque) / t.t_opaque


def near_resonance(params: DoubleBarrierParams) -> bool:
    """True when the spacing sits close enough to a transmission resonance
    that d-comparisons across different barrier widths are dominated by
    the peaks rather than the plateaus: its proximity is below
    NEAR_RESONANCE_CUTOFF."""
    k, q, d = _arrays(params.k, params.q, params.d)
    bad = np.zeros(1, bool)
    with np.errstate(all="ignore"):
        proximity = _proximity(k, q, d, bad)
    if bad[0]:
        raise params.float_range_error("proximity values")
    return float(proximity[0]) < NEAR_RESONANCE_CUTOFF


def asymptotic_agreement(params: DoubleBarrierParams) -> float:
    """Relative deviation of t_between from its wide-barrier asymptotic form.

    Requires qa > 2 (asymptotic regime guard). NaN where the asymptotic
    form is: on a resonance of its denominator, or out of the float range.
    Raises OpaqueUnderflowError when the
    regime is so opaque that t_between has decayed below the representable
    comparison floor.
    """
    if not params.q * params.a > 2.0:
        raise InvalidParameterError(
            f"asymptotic comparison needs qa > 2, got qa = {params.q * params.a}"
        )
    t = times(params)
    if math.exp(-2.0 * params.q * params.a) == 0.0 or abs(t.t_between) < 1e-300:
        raise OpaqueUnderflowError(
            "between-gap time decayed below the comparable range"
        )
    if math.isnan(t.t_between_asymptotic):
        return math.nan
    return abs(t.t_between - t.t_between_asymptotic) / abs(t.t_between)
