"""Exact transmission amplitude, phase, and clock times for the symmetric
double barrier, with opaque-limit and wide-barrier asymptotics.

All expressions are evaluated in a form scaled by e^{-2qa}: cosh(2qa) and
sinh(2qa) never appear directly, only (1 +- e^{-4qa})/2, and purely
algebraic terms carry an explicit e^{-2qa} factor. Ratios such as the
clock times are invariant under this common scaling, so they stay finite
and accurate deep into the opaque regime where the raw auxiliaries would
overflow (2qa of a few hundred and beyond).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import (
    InvalidParameterError,
    InvalidPerturbationError,
    OpaqueUnderflowError,
)
from .potentials import NATURAL_UNITS, UnitsConfig

__all__ = [
    "DoubleBarrierParams",
    "AuxiliaryValues",
    "DoubleBarrierTimes",
    "perturbed_amplitude",
    "perturbed_phase",
    "perturbed_alpha_beta",
    "auxiliaries",
    "times",
    "opaque_limit_gap",
    "asymptotic_agreement",
    "resonance_proximity",
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


@dataclass(frozen=True)
class AuxiliaryValues:
    """Unscaled auxiliary combinations entering the closed-form times.

    alpha0/beta0 are the zero-coupling amplitude components, gamma1/gamma2
    their derivatives with respect to the gap wavenumber, gamma3/gamma4
    with respect to the barrier decay constant, and h1/h2 the cross
    combinations alpha0*gamma1 - beta0*gamma2 and alpha0*gamma3 -
    beta0*gamma4. These grow like e^{2qa} (h like e^{4qa}); use times()
    for opaque-regime ratios.
    """

    alpha0: float
    beta0: float
    gamma1: float
    gamma2: float
    gamma3: float
    gamma4: float
    h1: float
    h2: float


@dataclass(frozen=True)
class DoubleBarrierTimes:
    """Clock times of the double barrier plus limiting values.

    t_whole is the clock time for the full region (0, 2a+d), which also
    equals the dwell time by symmetry; t_between and t_barriers are the
    contributions of the gap and of the two barriers; t_opaque is the
    common opaque limit of t_whole and t_barriers; t_between_asymptotic
    is the leading wide-barrier form of t_between (NaN marks a resonance
    of its denominator).
    """

    t_whole: float
    t_between: float
    t_barriers: float
    t_opaque: float
    t_between_asymptotic: float


def _scaled_hyperbolics(q: float, a: float) -> tuple[float, float, float]:
    """cosh(2qa), sinh(2qa), and 1, all scaled by e^{-2qa}."""
    x = math.exp(-4.0 * q * a)
    return 0.5 * (1.0 + x), 0.5 * (1.0 - x), math.exp(-2.0 * q * a)


def _scaled_alpha_beta(k: float, p: float, q: float, a: float, d: float) -> tuple[float, float]:
    """Amplitude components alpha_m, beta_m scaled by e^{-2qa}.

    p is the gap wavenumber and q the barrier decay constant, both already
    shifted by the coupling; k is the fixed exterior wavenumber.
    """
    ch, sh, nh = _scaled_hyperbolics(q, a)
    sin_pd = math.sin(p * d)
    cos_pd = math.cos(p * d)
    alpha = 2.0 * k * q * (2.0 * p * q * cos_pd * ch + (q * q - p * p) * sin_pd * sh)
    beta = (
        -(k * k + q * q) * (p * p + q * q) * sin_pd * nh
        + 2.0 * p * q * (q * q - k * k) * cos_pd * sh
        + (q * q - p * p) * (q * q - k * k) * sin_pd * ch
    )
    return alpha, beta


def _scaled_gammas(k: float, q: float, a: float, d: float) -> tuple[float, float, float, float]:
    """Zero-coupling derivatives of (alpha, beta), scaled by e^{-2qa}.

    gamma1 = d beta / d p, gamma2 = d alpha / d p (gap wavenumber),
    gamma3 = d beta / d q, gamma4 = d alpha / d q (barrier decay),
    all evaluated at p = k.
    """
    ch, sh, nh = _scaled_hyperbolics(q, a)
    k2, q2 = k * k, q * q
    sin_kd = math.sin(k * d)
    cos_kd = math.cos(k * d)
    g1 = (
        (-2.0 * k * (q2 + k2) * sin_kd - d * (q2 + k2) ** 2 * cos_kd) * nh
        + 2.0 * q * (q2 - k2) * cos_kd * sh
        - 2.0 * q * k * d * (q2 - k2) * sin_kd * sh
        - 2.0 * k * (q2 - k2) * sin_kd * ch
        + d * (q2 - k2) ** 2 * cos_kd * ch
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
        + 2.0 * a * (q2 - k2) ** 2 * sin_kd * sh
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
    k = params.k
    a, d = params.a, params.d
    sin_pd = math.sin(p * d)
    cos_pd = math.cos(p * d)
    nh = math.exp(-2.0 * q * a)
    # Denominator scaled by e^{-2qa}; the amplitude carries the inverse
    # factor explicitly, so nothing overflows for wide barriers.
    denom = (
        2.0 * sin_pd * (k * k + q * q) * (p * p + q * q) * nh
        - (k - 1j * q) ** 2
        * (2.0 * p * q * cos_pd + (p * p - q * q) * sin_pd)
        * nh
        * nh
        - (q - 1j * k) ** 2 * (2.0 * p * q * cos_pd - (p * p - q * q) * sin_pd)
    )
    numer = 8j * k * p * q * q * cmath.exp(-1j * (2.0 * a + d) * k) * nh
    return numer / denom


def perturbed_alpha_beta(params: DoubleBarrierParams, coupling: float = 0.0) -> tuple[float, float]:
    """Components (alpha, beta) of the transmission phase at the given coupling.

    Both are scaled by a common positive factor e^{-2qa}, which leaves the
    phase atan2(beta, alpha) unchanged and keeps wide barriers finite.
    """
    p, q = _shifted_wavenumbers(params, coupling)
    return _scaled_alpha_beta(params.k, p, q, params.a, params.d)


def perturbed_phase(params: DoubleBarrierParams, coupling: float = 0.0) -> float:
    """Transmission phase -(2a+d)k - atan2(beta, alpha), branch continuous from zero coupling.

    The branch is chosen so the phase varies continuously as the coupling
    moves away from zero within its validity window.
    """
    alpha0, beta0 = perturbed_alpha_beta(params, 0.0)
    alpha, beta = perturbed_alpha_beta(params, coupling)
    base = math.atan2(beta0, alpha0)
    step = math.remainder(math.atan2(beta, alpha) - base, math.tau)
    return -(2.0 * params.a + params.d) * params.k - (base + step)


def auxiliaries(params: DoubleBarrierParams) -> AuxiliaryValues:
    """Unscaled auxiliary values; these overflow above 2qa of roughly 700."""
    k, q = params.k, params.q
    alpha, beta = _scaled_alpha_beta(k, k, q, params.a, params.d)
    g1, g2, g3, g4 = _scaled_gammas(k, q, params.a, params.d)
    scale = math.exp(2.0 * q * params.a)
    scale2 = scale * scale
    return AuxiliaryValues(
        alpha0=alpha * scale,
        beta0=beta * scale,
        gamma1=g1 * scale,
        gamma2=g2 * scale,
        gamma3=g3 * scale,
        gamma4=g4 * scale,
        h1=(alpha * g1 - beta * g2) * scale2,
        h2=(alpha * g3 - beta * g4) * scale2,
    )


def times(params: DoubleBarrierParams) -> DoubleBarrierTimes:
    """All closed-form clock times for the double barrier.

    Every ratio is formed from e^{-2qa}-scaled auxiliaries, so the common
    growth factor cancels exactly and the times stay accurate for wide
    barriers. t_whole = t_between + t_barriers holds identically.

    Raises InvalidParameterError where the times leave the float range:
    barriers so tall that the auxiliaries overflow, energies so small that
    their denominator vanishes, or wavenumbers that are not finite.
    """
    try:
        t = _times(params)
        finite = all(
            map(math.isfinite, (t.t_whole, t.t_between, t.t_barriers, t.t_opaque))
        )
    except (ArithmeticError, ValueError):
        # ValueError: math.sin of an infinite phase.
        finite = False
    if not finite:
        raise InvalidParameterError(
            f"closed-form times leave the float range at E={params.E}, "
            f"V0={params.V0}, a={params.a}, d={params.d}"
        )
    return t


def _times(params: DoubleBarrierParams) -> DoubleBarrierTimes:
    k, q = params.k, params.q
    a, d = params.a, params.d
    m, hbar = params.units.mass, params.units.hbar
    alpha, beta = _scaled_alpha_beta(k, k, q, a, d)
    g1, g2, g3, g4 = _scaled_gammas(k, q, a, d)
    h1 = alpha * g1 - beta * g2
    h2 = alpha * g3 - beta * g4
    denom = alpha * alpha + beta * beta
    t_between = -(m / (hbar * k)) * h1 / denom
    t_barriers = (m / (hbar * q)) * h2 / denom
    t_whole = t_between + t_barriers
    k2, q2 = k * k, q * q
    t_opaque = 2.0 * m * k / (hbar * q * (k2 + q2))

    sin_kd = math.sin(k * d)
    cos_kd = math.cos(k * d)
    res_den = (k2 - q2) * sin_kd - 2.0 * k * q * cos_kd
    if abs(res_den) < RESONANCE_DENOMINATOR_CUTOFF * (k2 + q2):
        t_asym = math.nan
    else:
        numer = (
            2.0 * k * d * (k2 + q2)
            + 4.0 * k * q * sin_kd * sin_kd
            + (k2 - q2) * math.sin(2.0 * k * d)
        )
        t_asym = (
            (4.0 * m * q2 / hbar)
            * math.exp(-2.0 * q * a)
            / (k2 + q2)
            * numer
            / (res_den * res_den)
        )
    return DoubleBarrierTimes(
        t_whole=t_whole,
        t_between=t_between,
        t_barriers=t_barriers,
        t_opaque=t_opaque,
        t_between_asymptotic=t_asym,
    )


def opaque_limit_gap(params: DoubleBarrierParams) -> float:
    """Relative distance of t_whole from its opaque limit."""
    t = times(params)
    return abs(t.t_whole - t.t_opaque) / t.t_opaque


def resonance_proximity(params: DoubleBarrierParams) -> float:
    """|sin(kd - phi0)|: scaled distance from perfect-transmission spacing.

    The resonance condition in the inter-barrier spacing d reads
    (k^2 - q^2) sin(kd) = 2kq cos(kd), i.e. sin(kd - phi0) = 0 with
    tan(phi0) = 2kq/(k^2 - q^2). Squared, this is the factor by which
    near-resonance terms are enhanced, so the proximity is directly the
    relevant smallness scale. Range [0, 1]; 0 exactly on resonance.
    """
    k, q = params.k, params.q
    phi0 = math.atan2(2.0 * k * q, k * k - q * q)
    return abs(math.sin(k * params.d - phi0))


def near_resonance(
    params: DoubleBarrierParams, cutoff: float = NEAR_RESONANCE_CUTOFF
) -> bool:
    """True when the spacing sits close enough to a transmission resonance
    that d-comparisons across different barrier widths are dominated by
    the peaks rather than the plateaus."""
    return resonance_proximity(params) < cutoff


def asymptotic_agreement(params: DoubleBarrierParams) -> float:
    """Relative deviation of t_between from its wide-barrier asymptotic form.

    Requires qa > 2 (asymptotic regime guard). NaN when the asymptotic
    denominator sits on a resonance. Raises OpaqueUnderflowError when the
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
