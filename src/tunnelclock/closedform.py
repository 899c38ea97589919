"""Clock times and transmission probability of the symmetric double
barrier, with opaque-limit and wide-barrier asymptotics. All of them come
from alpha and beta, the real and imaginary parts of the transmission
amplitude's denominator, and from their derivatives.

All expressions are evaluated in a form scaled by e^{-2qa}: cosh(2qa) and
sinh(2qa) never appear directly, only (1 +- e^{-4qa})/2, and purely
algebraic terms carry an explicit e^{-2qa} factor. Ratios such as the
clock times are invariant under this common scaling, so they stay finite
and accurate deep into the opaque regime where the raw auxiliaries would
overflow (2qa of a few hundred and beyond).

The formulas run over float64 arrays: ``grid`` evaluates a whole sweep in
one pass, each intermediate in the shape of the parameters it depends on,
so what a float parameter determines is evaluated once and only the
outputs are broadcast; ``perturbed_amplitude`` takes alpha and beta from
the same code at one set, and forms the complex amplitude from them in
plain complex arithmetic. The arrays round like scalar CPython
arithmetic (see ``_arith``), so each element equals, bit for bit, what
that parameter set alone gives, and the 17-digit CSV does not depend on
how many points are evaluated at once. A set outside the tunneling
regime, or whose times or transmission probability are not finite, is
marked in a mask and its values are NaN. ``times`` and ``near_resonance``
read ``grid`` at their one set, so they raise exactly where it marks that
set, as the CLI does.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._arith import _each
from .errors import InvalidParameterError, TunnelClockError
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
    """Closed forms over a grid of parameter sets, one element per set in
    every field, whichever parameters were given as one float.

    ok is False where the set leaves the tunneling regime, where a time
    or trans_prob is not finite, or where t_whole underflowed to zero;
    times raises exactly there.
    The times and trans_prob are NaN there. proximity is NaN outside the
    tunneling regime, and NaN or infinite where kd is infinite or k^2 + q^2
    leaves the float range; near_resonance raises there.
    """

    t_whole: np.ndarray
    t_between: np.ndarray
    t_barriers: np.ndarray
    t_opaque: np.ndarray
    trans_prob: np.ndarray
    proximity: np.ndarray
    ok: np.ndarray


class _Terms(NamedTuple):
    """sin pd and cos pd (NaN where pd is infinite), and cosh 2qa, sinh 2qa
    and 1 scaled by e^{-2qa}."""

    sin: np.ndarray
    cos: np.ndarray
    ch: np.ndarray
    sh: np.ndarray
    nh: np.ndarray


def _arrays(*values) -> list[np.ndarray]:
    """The values as float64 arrays of at least one element, each in its
    own shape; the arithmetic broadcasts them."""
    return [np.atleast_1d(np.asarray(v, float)) for v in values]


def _terms(p, q, a, d) -> _Terms:
    x = _each(math.exp, -4.0 * q * a)
    # math.sin and math.cos raise at an infinite phase and pass NaN, so an
    # infinite phase is NaN here, and so is everything formed from it.
    phase = np.where(np.isinf(p * d), np.nan, p * d)
    return _Terms(
        _each(math.sin, phase),
        _each(math.cos, phase),
        0.5 * (1.0 + x),
        0.5 * (1.0 - x),
        _each(math.exp, -2.0 * q * a),
    )


def _scaled_alpha_beta(k, p, q, t: _Terms):
    """Amplitude components alpha_m, beta_m scaled by e^{-2qa}.

    k is the wavenumber outside the barriers, p the gap's and q the
    barrier decay constant; t holds the terms of p and q.
    """
    alpha = 2.0 * k * q * (2.0 * p * q * t.cos * t.ch + (q * q - p * p) * t.sin * t.sh)
    beta = (
        -(k * k + q * q) * (p * p + q * q) * t.sin * t.nh
        + 2.0 * p * q * (q * q - k * k) * t.cos * t.sh
        + (q * q - p * p) * (q * q - k * k) * t.sin * t.ch
    )
    return alpha, beta


def _scaled_gammas(k, q, a, d, t: _Terms):
    """Zero-coupling derivatives of (alpha, beta), scaled by e^{-2qa}.

    gamma1 = d beta / d p, gamma2 = d alpha / d p (gap wavenumber),
    gamma3 = d beta / d q, gamma4 = d alpha / d q (barrier decay),
    all evaluated at p = k; t holds the terms of k and q.
    """
    ch, sh, nh = t.ch, t.sh, t.nh
    k2, q2 = k * k, q * q
    sin_kd, cos_kd = t.sin, t.cos
    sum2 = (q2 + k2) * (q2 + k2)
    diff2 = (q2 - k2) * (q2 - k2)
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
    """(t_whole, t_between, t_barriers, t_opaque, trans_prob); marks bad
    where a time or trans_prob is not finite, and where t_whole is zero.

    A structure of positive width holds the particle for a positive time,
    so a zero t_whole has underflowed. trans_prob is |T|^2 with
    |T| = 4 k^2 q^2 e^{-2qa} / |alpha + i beta|, both sides scaled alike.
    """
    m, hbar = units.mass, units.hbar
    alpha, beta = _scaled_alpha_beta(k, k, q, t)
    g1, g2, g3, g4 = _scaled_gammas(k, q, a, d, t)
    h1 = alpha * g1 - beta * g2
    h2 = alpha * g3 - beta * g4
    denom = alpha * alpha + beta * beta
    t_between = -(m / (hbar * k)) * h1 / denom
    t_barriers = (m / (hbar * q)) * h2 / denom
    t_whole = t_between + t_barriers
    k2, q2 = k * k, q * q
    t_opaque = 2.0 * m * k / (hbar * q * (k2 + q2))
    size = 4.0 * k * k * q * q * t.nh / np.hypot(alpha, beta)
    trans_prob = size * size
    # A zero divisor above, an overflow or a NaN phase leaves a value
    # infinite or NaN, so this check covers them. Where |alpha + i beta|
    # overflows, so does denom, and t_whole is zero or NaN.
    for value in (t_whole, t_between, t_barriers, t_opaque, trans_prob):
        bad |= ~np.isfinite(value)
    bad |= t_whole == 0.0
    return t_whole, t_between, t_barriers, t_opaque, trans_prob


def _asymptotic(k, q, d, units: UnitsConfig, t: _Terms) -> np.ndarray:
    """The wide-barrier form of t_between, NaN near a resonance of its
    denominator res_den and where it would raise; only for sets that
    _times did not mark bad."""
    m, hbar = units.mass, units.hbar
    k2, q2 = k * k, q * q
    res_den = _resonance_denominator(k, q, t)
    # The form takes sin 2kd, which raises where 2kd is infinite, and
    # divides by res_den ** 2. Where either fails the form is NaN, like at
    # a resonance, and the printed times stand. Its other divisor, k2 + q2,
    # is zero only where t_opaque is already not finite.
    far = ~(np.abs(res_den) < RESONANCE_DENOMINATOR_CUTOFF * (k2 + q2))
    usable = far & ~np.isinf(2.0 * k * d) & (res_den * res_den != 0.0)
    res_den = np.where(usable, res_den, np.nan)
    numer = (
        2.0 * k * d * (k2 + q2)
        + 4.0 * k * q * t.sin * t.sin
        + (k2 - q2) * _each(math.sin, np.where(np.isnan(res_den), 0.0, 2.0 * k * d))
    )
    return (4.0 * m * q2 / hbar) * t.nh / (k2 + q2) * numer / (res_den * res_den)


def _resonance_denominator(k, q, t: _Terms) -> np.ndarray:
    """(k^2 - q^2) sin kd - 2kq cos kd, which vanishes at the transmission
    resonances; t holds the terms of k and q.

    It equals (k^2 + q^2) sin(kd - phi0) with tan phi0 = 2kq / (k^2 - q^2),
    so divided by k^2 + q^2 it is the resonance proximity |sin(kd - phi0)|:
    the scaled distance from a perfect-transmission spacing, in [0, 1] and
    0 on resonance. Squared, it is the factor by which near-resonance
    terms are enhanced, so it is directly the relevant smallness scale.
    """
    return (k * k - q * q) * t.sin - 2.0 * k * q * t.cos


def grid(V0, a, d, E, units: UnitsConfig = NATURAL_UNITS) -> DoubleBarrierGrid:
    """Times, transmission probability and resonance proximity at every
    parameter set of a grid.

    V0, a, d and E are floats or arrays of one length; each element of the
    result equals the scalar formulas at that set bit for bit, and a set
    where they raise (out of the tunneling regime, or out of the float
    range) is marked in ok instead, with NaN values. What the floats alone
    determine is evaluated once; every field is broadcast to the grid.
    """
    V0, a, d, E = _arrays(V0, a, d, E)
    m, hbar = units.mass, units.hbar
    with np.errstate(all="ignore"):
        regime = (np.isfinite(V0) & np.isfinite(a) & np.isfinite(d) & np.isfinite(E)
                  & (a > 0) & (d > 0) & (0 < E) & (E < V0))
        # A value not finite and positive is NaN from here on, which the math
        # calls pass without raising; sets outside the regime are masked.
        V0, a, d, E = (np.where(np.isfinite(v) & (v > 0), v, np.nan) for v in (V0, a, d, E))
        bad = ~regime
        k = np.sqrt(2.0 * m * E) / hbar
        q = np.sqrt(2.0 * m * (V0 - E)) / hbar
        t = _terms(k, q, a, d)
        values = _times(k, q, a, d, units, t, bad)
        proximity = np.abs(_resonance_denominator(k, q, t)) / (k * k + q * q)
    return DoubleBarrierGrid(*(np.where(bad, np.nan, v) for v in values),
                             np.where(regime, proximity, np.nan), ~bad)


def _flags(g: DoubleBarrierGrid) -> np.ndarray:
    """Where a closed-form CSV row reads flag 1, besides its NA cells:
    near a transmission resonance, or where t_between or t_barriers is
    negative.

    Each of the three times is a dwell time, so none can be negative; a
    negative one has lost its digits to cancellation. Rounding is
    monotone, so t_whole = fl(t_between + t_barriers) is then also at
    least t_between.
    """
    return (g.proximity < NEAR_RESONANCE_CUTOFF) | (g.t_between < 0.0) | (g.t_barriers < 0.0)


def _shifted_wavenumbers(params: DoubleBarrierParams, coupling: float) -> tuple[float, float]:
    """Gap and barrier wavenumbers with the coupling added everywhere inside.

    The coupling shifts the potential on the whole region (0, 2a+d): the
    gap floor rises to the coupling value and the barriers to V0 plus it.
    """
    m, hbar = params.units.mass, params.units.hbar
    gap = params.E - coupling
    bar = params.V0 + coupling - params.E
    if not (gap > 0 and bar > 0):
        raise InvalidParameterError(
            f"coupling {coupling} leaves the tunneling regime "
            f"(need 0 < E - coupling and 0 < V0 + coupling - E)"
        )
    return math.sqrt(2.0 * m * gap) / hbar, math.sqrt(2.0 * m * bar) / hbar


def perturbed_amplitude(params: DoubleBarrierParams, coupling: float = 0.0) -> complex:
    """Transmission amplitude with the whole region (0, 2a+d) shifted by
    coupling: 4i k p q^2 e^{-2qa} e^{-ik(2a+d)} / (-beta + i alpha), at
    the shifted gap wavenumber p and barrier decay q. Raises
    InvalidParameterError where alpha, beta or the amplitude leave the
    float range."""
    p, q = _shifted_wavenumbers(params, coupling)
    k, a, d = params.k, params.a, params.d
    with np.errstate(all="ignore"):
        t = _terms(*_arrays(p, q, a, d))
        alpha, beta = _scaled_alpha_beta(*_arrays(k, p, q), t)
    alpha, beta = float(alpha[0]), float(beta[0])
    if math.isfinite(alpha) and math.isfinite(beta):
        try:
            amplitude = (4j * k * p * q * q * float(t.nh[0]) * cmath.exp(-1j * (2.0 * a + d) * k)
                         / complex(-beta, alpha))
        except (ArithmeticError, ValueError):
            pass
        else:
            if cmath.isfinite(amplitude):
                return amplitude
    raise params.float_range_error("amplitude values")


def times(params: DoubleBarrierParams) -> DoubleBarrierTimes:
    """All closed-form clock times for the double barrier: grid's times at
    the set, and the wide-barrier form of t_between.

    Every ratio is formed from e^{-2qa}-scaled auxiliaries, so the common
    growth factor cancels exactly and the times stay accurate for wide
    barriers. t_whole = t_between + t_barriers holds identically.

    Raises InvalidParameterError exactly where grid marks the set, as the
    CLI does: where the times or the transmission probability leave the
    float range, or t_whole underflows to zero.
    """
    g = grid(params.V0, params.a, params.d, params.E, params.units)
    if not g.ok[0]:
        raise params.float_range_error()
    k, q, a, d = _arrays(params.k, params.q, params.a, params.d)
    with np.errstate(all="ignore"):
        asymptotic = _asymptotic(k, q, d, params.units, _terms(k, q, a, d))
    values = (g.t_whole, g.t_between, g.t_barriers, g.t_opaque, asymptotic)
    return DoubleBarrierTimes(*(float(v[0]) for v in values))


def opaque_limit_gap(params: DoubleBarrierParams) -> float:
    """Relative distance of t_whole from its opaque limit."""
    t = times(params)
    return abs(t.t_whole - t.t_opaque) / t.t_opaque


def near_resonance(params: DoubleBarrierParams) -> bool:
    """True when the spacing sits close enough to a transmission resonance
    that d-comparisons across different barrier widths are dominated by
    the peaks rather than the plateaus: grid's proximity at the set is
    below NEAR_RESONANCE_CUTOFF. Raises where that proximity is not
    finite: where kd is infinite or k^2 + q^2 leaves the float range, all
    sets where times raises too."""
    proximity = float(grid(params.V0, params.a, params.d, params.E, params.units).proximity[0])
    if not math.isfinite(proximity):
        raise params.float_range_error("proximity values")
    return proximity < NEAR_RESONANCE_CUTOFF


def asymptotic_agreement(params: DoubleBarrierParams) -> float:
    """Relative deviation of t_between from its wide-barrier asymptotic form.

    Requires qa > 2 (asymptotic regime guard). NaN where the asymptotic
    form is: on a resonance of its denominator, or out of the float range.
    Raises InvalidParameterError where qa <= 2, and TunnelClockError where
    the regime is so opaque that t_between has decayed below the
    representable comparison floor.
    """
    if not params.q * params.a > 2.0:
        raise InvalidParameterError(
            f"asymptotic comparison needs qa > 2, got qa = {params.q * params.a}"
        )
    t = times(params)
    if math.exp(-2.0 * params.q * params.a) == 0.0 or abs(t.t_between) < 1e-300:
        raise TunnelClockError(
            "between-gap time decayed below the comparable range"
        )
    if math.isnan(t.t_between_asymptotic):
        return math.nan
    return abs(t.t_between - t.t_between_asymptotic) / abs(t.t_between)
