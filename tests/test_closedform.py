"""Closed-form double-barrier times against the scattering engine and
against finite differences of independently transcribed amplitude parts."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tunnelclock.closedform import (
    NEAR_RESONANCE_CUTOFF,
    AuxiliaryValues,
    DoubleBarrierParams,
    asymptotic_agreement,
    auxiliaries,
    near_resonance,
    opaque_limit_gap,
    perturbed_alpha_beta,
    perturbed_amplitude,
    perturbed_phase,
    resonance_proximity,
    times,
)
from tunnelclock.errors import (
    InvalidParameterError,
    InvalidPerturbationError,
    OpaqueUnderflowError,
)
from tunnelclock.potentials import (
    ClockRegion,
    UnitsConfig,
    double_barrier,
    perturb,
)
from tunnelclock.scattering import dwell_time, solve, transmission_phase

BASE = dict(V0=0.018, a=10.0, d=10.0, E=0.01)


def test_wavenumber_identity():
    p = DoubleBarrierParams(**BASE)
    assert p.k == pytest.approx(math.sqrt(0.02), rel=1e-15)
    assert p.q == pytest.approx(math.sqrt(0.016), rel=1e-15)
    assert p.k**2 + p.q**2 == pytest.approx(2.0 * p.V0, rel=1e-15)
    u = UnitsConfig(mass=2.0, hbar=3.0)
    pu = DoubleBarrierParams(units=u, **BASE)
    assert pu.k**2 + pu.q**2 == pytest.approx(
        2.0 * u.mass * p.V0 / u.hbar**2, rel=1e-15
    )


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        DoubleBarrierParams(V0=0.018, a=10.0, d=10.0, E=0.018)
    with pytest.raises(InvalidParameterError):
        DoubleBarrierParams(V0=0.018, a=10.0, d=10.0, E=0.0)
    with pytest.raises(InvalidParameterError):
        DoubleBarrierParams(V0=0.018, a=-1.0, d=10.0, E=0.01)
    with pytest.raises(InvalidParameterError):
        DoubleBarrierParams(V0=0.018, a=10.0, d=0.0, E=0.01)
    with pytest.raises(InvalidParameterError):
        DoubleBarrierParams(V0=math.inf, a=10.0, d=10.0, E=0.01)


@pytest.mark.parametrize(
    "params",
    [
        dict(V0=1e100, a=10.0, d=10.0, E=0.01),  # scaled terms reach nan
        dict(V0=1e300, a=10.0, d=10.0, E=0.01),  # (q^2 + k^2)^2 overflows
        dict(V0=0.018, a=10.0, d=10.0, E=5e-324),  # denominator underflows
        dict(V0=0.018, a=10.0, d=1.7e308, E=0.01),  # gap time overflows
    ],
)
def test_times_beyond_float_range_rejected(params):
    with pytest.raises(InvalidParameterError, match="float range"):
        times(DoubleBarrierParams(**params))


def test_amplitude_matches_engine():
    p = DoubleBarrierParams(**BASE)
    sol = solve(double_barrier(p.V0, p.a, p.d), p.E)
    amp = perturbed_amplitude(p)
    assert amp == pytest.approx(sol.transmission, rel=1e-10)
    assert abs(amp) ** 2 == pytest.approx(0.86926095390020841, rel=1e-12)


def test_perturbed_amplitude_matches_engine_on_shifted_potential():
    p = DoubleBarrierParams(**BASE)
    vm = 1e-8
    shifted = perturb(
        double_barrier(p.V0, p.a, p.d),
        ClockRegion(0.0, 2.0 * p.a + p.d),
        vm,
    )
    sol = solve(shifted, p.E)
    assert perturbed_amplitude(p, vm) == pytest.approx(
        sol.transmission, rel=1e-10
    )


def test_phase_matches_engine():
    p = DoubleBarrierParams(**BASE)
    sol = solve(double_barrier(p.V0, p.a, p.d), p.E)
    delta = math.remainder(
        perturbed_phase(p) - transmission_phase(sol), math.tau
    )
    assert delta == pytest.approx(0.0, abs=1e-10)


def test_phase_branch_continuous_in_coupling():
    p = DoubleBarrierParams(**BASE)
    couplings = [i * 2e-5 for i in range(-25, 26)]
    vals = [perturbed_phase(p, c) for c in couplings]
    for prev, cur in zip(vals, vals[1:]):
        assert abs(cur - prev) < 0.1


def test_phase_derivative_reproduces_t_whole():
    p = DoubleBarrierParams(**BASE)
    t = times(p)
    h = 1e-8
    fd = (perturbed_phase(p, h) - perturbed_phase(p, -h)) / (2.0 * h)
    assert -fd == pytest.approx(t.t_whole, rel=1e-6)


def test_times_match_engine_dwell():
    p = DoubleBarrierParams(**BASE)
    t = times(p)
    sol = solve(double_barrier(p.V0, p.a, p.d), p.E)
    span = 2.0 * p.a + p.d
    assert t.t_whole == pytest.approx(
        dwell_time(sol, ClockRegion(0.0, span)), rel=1e-12
    )
    assert t.t_between == pytest.approx(
        dwell_time(sol, ClockRegion(p.a, p.a + p.d)), rel=1e-12
    )
    barrier_dwell = dwell_time(sol, ClockRegion(0.0, p.a)) + dwell_time(
        sol, ClockRegion(p.a + p.d, span)
    )
    assert t.t_barriers == pytest.approx(barrier_dwell, rel=1e-12)


def test_frozen_reference_times():
    t = times(DoubleBarrierParams(**BASE))
    assert t.t_whole == pytest.approx(1043.8196903428586, rel=1e-13)
    assert t.t_between == pytest.approx(662.3580835207285, rel=1e-13)
    assert t.t_barriers == pytest.approx(381.46160682213014, rel=1e-13)
    assert t.t_opaque == pytest.approx(62.11299937499416, rel=1e-13)


def test_opaque_limit_formula():
    p = DoubleBarrierParams(**BASE)
    t = times(p)
    k, q = p.k, p.q
    assert t.t_opaque == pytest.approx(
        2.0 * k / (q * (k * k + q * q)), rel=1e-15
    )
    assert t.t_opaque == pytest.approx(62.113, rel=1e-4)


def test_decomposition_identity():
    for d in (1.0, 5.0, 10.0, 50.0):
        t = times(DoubleBarrierParams(V0=0.018, a=10.0, d=d, E=0.01))
        assert t.t_whole == t.t_between + t.t_barriers


def _unscaled_alpha(k, a, d):
    def f(p, q):
        return 2.0 * k * q * (
            2.0 * p * q * math.cos(p * d) * math.cosh(2.0 * q * a)
            + (q * q - p * p) * math.sin(p * d) * math.sinh(2.0 * q * a)
        )

    return f


def _unscaled_beta(k, a, d):
    def f(p, q):
        return (
            -(k * k + q * q) * (p * p + q * q) * math.sin(p * d)
            + 2.0 * p * q * (q * q - k * k) * math.cos(p * d)
            * math.sinh(2.0 * q * a)
            + (q * q - p * p) * (q * q - k * k) * math.sin(p * d)
            * math.cosh(2.0 * q * a)
        )

    return f


@pytest.mark.parametrize("a,d,E", [(10.0, 10.0, 0.01), (30.0, 7.0, 0.006)])
def test_gammas_match_finite_differences(a, d, E):
    # gamma1..gamma4 are hand-differentiated in the package; here the
    # underlying alpha/beta are retranscribed in plain cosh/sinh form and
    # differentiated numerically, so an algebra slip in either route shows
    p = DoubleBarrierParams(V0=0.018, a=a, d=d, E=E)
    k, q = p.k, p.q
    alpha = _unscaled_alpha(k, a, d)
    beta = _unscaled_beta(k, a, d)
    aux = auxiliaries(p)
    assert aux.alpha0 == pytest.approx(alpha(k, q), rel=1e-12)
    assert aux.beta0 == pytest.approx(beta(k, q), rel=1e-12)
    h = 1e-6
    fd = {
        "gamma1": (beta(k + h, q) - beta(k - h, q)) / (2.0 * h),
        "gamma2": (alpha(k + h, q) - alpha(k - h, q)) / (2.0 * h),
        "gamma3": (beta(k, q + h) - beta(k, q - h)) / (2.0 * h),
        "gamma4": (alpha(k, q + h) - alpha(k, q - h)) / (2.0 * h),
    }
    for name, ref in fd.items():
        assert getattr(aux, name) == pytest.approx(ref, rel=1e-6), name
    assert aux.h1 == pytest.approx(
        aux.alpha0 * aux.gamma1 - aux.beta0 * aux.gamma2, rel=1e-12
    )
    assert aux.h2 == pytest.approx(
        aux.alpha0 * aux.gamma3 - aux.beta0 * aux.gamma4, rel=1e-12
    )


def test_opaque_gap_shrinks_with_width():
    gaps = [
        opaque_limit_gap(DoubleBarrierParams(V0=0.018, a=a, d=10.0, E=0.01))
        for a in (1.0, 10.0, 30.0, 60.0)
    ]
    assert gaps[0] > 0.5  # thin barriers nowhere near saturation
    assert gaps[1] > gaps[2] > gaps[3]
    # frozen regression value; the scale is set by e^{-2qa} times a large
    # resonance-enhanced prefactor at d=10 (the nearest peak sits at
    # d ~ 10.32), which is why saturation is still ~1e-3 at a=60
    assert gaps[3] == pytest.approx(0.00089103144198491495, rel=1e-10)


def test_asymptotic_agreement_improves_with_width():
    vals = [
        asymptotic_agreement(
            DoubleBarrierParams(V0=0.018, a=a, d=10.0, E=0.01)
        )
        for a in (30.0, 40.0, 50.0)
    ]
    assert vals[0] == pytest.approx(0.0054148224325085157, rel=1e-10)
    assert vals[1] == pytest.approx(0.00039541441700492182, rel=1e-10)
    assert vals[2] == pytest.approx(3.1275395147259302e-05, rel=1e-10)
    assert vals[0] <= 1e-2
    assert vals[0] > vals[1] > vals[2]


def test_asymptotic_guard_and_underflow():
    with pytest.raises(InvalidParameterError):
        asymptotic_agreement(DoubleBarrierParams(**BASE))  # qa ~ 1.26
    with pytest.raises(OpaqueUnderflowError):
        asymptotic_agreement(
            DoubleBarrierParams(V0=0.018, a=3000.0, d=10.0, E=0.01)
        )


def test_asymptotic_nan_on_resonance():
    p0 = DoubleBarrierParams(V0=0.018, a=30.0, d=10.0, E=0.01)
    k, q = p0.k, p0.q
    d_res = math.atan2(2.0 * k * q, k * k - q * q) / k
    p = DoubleBarrierParams(V0=0.018, a=30.0, d=d_res, E=0.01)
    assert math.isnan(asymptotic_agreement(p))
    assert math.isnan(times(p).t_between_asymptotic)


def test_resonance_proximity_values():
    p0 = DoubleBarrierParams(V0=0.018, a=30.0, d=10.0, E=0.01)
    k, q = p0.k, p0.q
    d_res = math.atan2(2.0 * k * q, k * k - q * q) / k
    assert d_res == pytest.approx(10.3199, abs=2e-4)
    on_peak = DoubleBarrierParams(V0=0.018, a=30.0, d=d_res, E=0.01)
    assert resonance_proximity(on_peak) == pytest.approx(0.0, abs=1e-12)
    assert near_resonance(on_peak)
    off = DoubleBarrierParams(V0=0.018, a=30.0, d=10.0, E=0.01)
    s = resonance_proximity(off)
    assert 0.03 < s < 0.06
    assert not near_resonance(off)
    assert near_resonance(off, cutoff=0.1)
    # periodic in d with period pi/k
    shifted = DoubleBarrierParams(
        V0=0.018, a=30.0, d=10.0 + math.pi / k, E=0.01
    )
    assert resonance_proximity(shifted) == pytest.approx(s, rel=1e-9)
    assert 0.0 < NEAR_RESONANCE_CUTOFF < 1.0


def test_transmission_reaches_one_near_asymptotic_resonance():
    # the proximity zero marks the wide-barrier limit of the resonance
    # spacing; at finite a the exact unit-transmission peak sits slightly
    # off it, so locate the peak and check both height and closeness
    from scipy.optimize import minimize_scalar

    p0 = DoubleBarrierParams(V0=0.018, a=12.0, d=10.0, E=0.01)
    k = p0.k
    d_res = math.atan2(2.0 * k * p0.q, k * k - p0.q * p0.q) / k

    def neg_prob(d):
        p = DoubleBarrierParams(V0=0.018, a=12.0, d=d, E=0.01)
        return -abs(perturbed_amplitude(p)) ** 2

    res = minimize_scalar(
        neg_prob,
        bounds=(d_res - 0.5, d_res + 0.5),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert -res.fun == pytest.approx(1.0, rel=1e-9)
    assert abs(res.x - d_res) < 0.1


def test_exponential_suppression_slope():
    # ln t_between vs a: slope -2q within 5% on the off-resonance plateau
    p0 = DoubleBarrierParams(**BASE)
    widths = [30.0 + 2.0 * i for i in range(16)]
    logs = [
        math.log(
            times(
                DoubleBarrierParams(V0=0.018, a=a, d=10.0, E=0.01)
            ).t_between
        )
        for a in widths
    ]
    n = len(widths)
    mean_a = sum(widths) / n
    mean_l = sum(logs) / n
    slope = sum(
        (a - mean_a) * (l - mean_l) for a, l in zip(widths, logs)
    ) / sum((a - mean_a) ** 2 for a in widths)
    assert slope == pytest.approx(-2.0 * p0.q, rel=0.05)


def test_shifted_regime_validation():
    p = DoubleBarrierParams(**BASE)
    with pytest.raises(InvalidPerturbationError):
        perturbed_amplitude(p, p.E)  # empties the gap channel
    with pytest.raises(InvalidPerturbationError):
        perturbed_amplitude(p, -(p.V0 - p.E))  # barrier top touches E
    assert isinstance(perturbed_amplitude(p, 0.5 * p.E), complex)
    with pytest.raises(InvalidPerturbationError):
        perturbed_alpha_beta(p, p.E)


def test_auxiliaries_type():
    aux = auxiliaries(DoubleBarrierParams(**BASE))
    assert isinstance(aux, AuxiliaryValues)
    assert all(
        math.isfinite(getattr(aux, f))
        for f in (
            "alpha0",
            "beta0",
            "gamma1",
            "gamma2",
            "gamma3",
            "gamma4",
            "h1",
            "h2",
        )
    )


@st.composite
def tunneling_params(draw):
    v0 = draw(st.floats(min_value=0.001, max_value=0.05, allow_nan=False))
    frac = draw(st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
    a = draw(st.floats(min_value=0.2, max_value=120.0, allow_nan=False))
    d = draw(st.floats(min_value=0.2, max_value=120.0, allow_nan=False))
    return DoubleBarrierParams(V0=v0, a=a, d=d, E=frac * v0)


@settings(max_examples=200, deadline=None)
@given(p=tunneling_params())
def test_times_positive_property(p):
    t = times(p)
    assert t.t_whole > 0
    assert t.t_barriers > 0
    assert t.t_opaque > 0
    # t_between's true scale e^{-2qa} can sit below double-precision
    # rounding of the assembled ratio deep in the opaque regime, where it
    # shows up as negative noise of order 1e-8 absolute at worst
    assert t.t_between > -1e-6 * t.t_whole
    assert t.t_whole == pytest.approx(
        t.t_between + t.t_barriers, rel=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(p=tunneling_params())
def test_amplitude_engine_agreement_property(p):
    if p.q * p.a > 150.0:  # |T| underflows; magnitude comparison is moot
        return
    sol = solve(double_barrier(p.V0, p.a, p.d), p.E)
    assert perturbed_amplitude(p) == pytest.approx(
        sol.transmission, rel=1e-8, abs=1e-280
    )
