"""Scattering engine against textbook formulas and an independent ODE solver."""

import bisect
import cmath
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

from tunnelclock.errors import (
    CouplingWarning,
    InvalidParameterError,
    TunnelClockError,
)
from tunnelclock.potentials import (
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
    double_barrier,
)
from tunnelclock import scattering
from tunnelclock.rotor import ClockRotor, measurement_simulation
from tunnelclock.scattering import _scaled_exp, dwell_time, overlap_integrals, solve


def _wave_terms(sol, z):
    """kappa and the forward and backward terms of psi at z, taking the
    region on the right at a breakpoint."""
    w = sol.wave(bisect.bisect_right(sol.breakpoints, z))
    u = z - w.anchor
    return w.kappa, _scaled_exp(w.a, 1j * w.kappa * u), _scaled_exp(w.b, -1j * w.kappa * u)


def wavefunction_at(sol, z):
    _, fwd, bwd = _wave_terms(sol, z)
    return fwd + bwd


def wavefunction_derivative_at(sol, z):
    kappa, fwd, bwd = _wave_terms(sol, z)
    return 1j * kappa * (fwd - bwd)


def _reflected(potential):
    """Spatial mirror image z -> -z of the potential."""
    return PiecewiseConstantPotential(
        tuple(-z for z in reversed(potential.breakpoints)),
        tuple(reversed(potential.heights)),
    )


def rectangular_barrier(v0, width):
    return PiecewiseConstantPotential((0.0, width), (v0,))


def textbook_tunneling_probability(E, v0, width):
    # 1 / (1 + V0^2 sinh^2(q w) / (4 E (V0 - E))) for E < V0
    q = math.sqrt(2.0 * (v0 - E))
    return 1.0 / (1.0 + v0**2 * math.sinh(q * width) ** 2 / (4.0 * E * (v0 - E)))


def test_single_barrier_against_textbook_formula():
    E, v0, width = 0.01, 0.018, 10.0
    sol = solve(rectangular_barrier(v0, width), E)
    assert abs(sol.transmission) ** 2 == pytest.approx(
        textbook_tunneling_probability(E, v0, width), rel=1e-13
    )


def test_single_barrier_frozen_value():
    # frozen output of this engine, cross-checked against the closed
    # formula above at first write
    sol = solve(rectangular_barrier(0.018, 10.0), 0.01)
    assert abs(sol.transmission) ** 2 == pytest.approx(
        0.2709323439236058, rel=1e-14
    )


def test_above_barrier_transmission():
    E, v0, width = 0.03, 0.018, 10.0
    p = math.sqrt(2.0 * (E - v0))
    k = math.sqrt(2.0 * E)
    expected = 1.0 / (
        1.0 + v0**2 * math.sin(p * width) ** 2 / (4.0 * E * (E - v0))
    )
    sol = solve(rectangular_barrier(v0, width), E)
    assert abs(sol.transmission) ** 2 == pytest.approx(expected, rel=1e-12)
    assert k == pytest.approx(sol.wavenumber)


def _ode_oracle(potential, E, z_samples):
    """Integrate psi'' = 2(V - E) psi from the transmitted side backwards.

    Starts from a pure outgoing wave of unit amplitude past the support,
    and normalizes by the incident component extracted on the left, which
    reproduces the engine's convention without using any engine code.
    """
    lo, hi = potential.support
    k = math.sqrt(2.0 * E)

    def rhs(z, y):
        v = potential(z)
        return [y[2], y[3], 2.0 * (v - E) * y[0], 2.0 * (v - E) * y[1]]

    psi0 = cmath.exp(1j * k * hi)
    y0 = [psi0.real, psi0.imag, (1j * k * psi0).real, (1j * k * psi0).imag]
    sol = solve_ivp(
        rhs,
        (hi, lo),
        y0,
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
        max_step=0.05,
    )
    assert sol.success

    def psi(z):
        if z >= hi:
            return cmath.exp(1j * k * z)
        vals = sol.sol(z)
        return complex(vals[0], vals[1])

    def dpsi(z):
        if z >= hi:
            return 1j * k * cmath.exp(1j * k * z)
        vals = sol.sol(z)
        return complex(vals[2], vals[3])

    # on the left: psi = A e^{ikz} + B e^{-ikz}ial; extract A from psi, psi'
    zl = lo
    a = (dpsi(zl) + 1j * k * psi(zl)) / (2j * k * cmath.exp(1j * k * zl))
    return [psi(z) / a for z in z_samples], 1.0 / a


def test_interior_wavefunction_against_ode():
    pot = double_barrier(0.018, 10.0, 10.0)
    E = 0.01
    samples = [2.0, 9.5, 15.0, 20.5, 28.0]
    oracle_vals, oracle_T = _ode_oracle(pot, E, samples)
    sol = solve(pot, E)
    assert sol.transmission == pytest.approx(oracle_T, rel=1e-8)
    for z, ref in zip(samples, oracle_vals):
        assert wavefunction_at(sol, z) == pytest.approx(ref, rel=1e-8)


def test_asymmetric_stack_against_ode():
    pot = PiecewiseConstantPotential(
        (0.0, 4.0, 7.0, 13.0, 18.0), (0.02, 0.0, 0.012, 0.025)
    )
    E = 0.009
    samples = [1.0, 5.5, 10.0, 16.0]
    oracle_vals, oracle_T = _ode_oracle(pot, E, samples)
    sol = solve(pot, E)
    assert sol.transmission == pytest.approx(oracle_T, rel=1e-8)
    for z, ref in zip(samples, oracle_vals):
        assert wavefunction_at(sol, z) == pytest.approx(ref, rel=1e-8)


def test_dwell_time_against_quadrature():
    pot = double_barrier(0.018, 10.0, 10.0)
    E = 0.01
    sol = solve(pot, E)
    region = ClockRegion(3.0, 27.0)
    direct, err = quad(
        lambda z: abs(wavefunction_at(sol, z)) ** 2,
        region.z1,
        region.z2,
        limit=400,
        epsabs=1e-12,
        epsrel=1e-12,
        points=[10.0, 20.0],
    )
    expected = direct / sol.wavenumber  # mass/(hbar k) with mass=hbar=1
    assert dwell_time(sol, region) == pytest.approx(expected, rel=1e-9)
    assert err < 1e-9


def test_dwell_region_outside_support():
    pot = double_barrier(0.018, 10.0, 10.0)
    sol = solve(pot, 0.01)
    region = ClockRegion(40.0, 45.0)
    # to the right only the transmitted plane wave lives: density |T|^2
    expected = abs(sol.transmission) ** 2 * 5.0 / sol.wavenumber
    assert dwell_time(sol, region) == pytest.approx(expected, rel=1e-12)


def test_dwell_additivity():
    pot = double_barrier(0.018, 10.0, 10.0)
    sol = solve(pot, 0.01)
    whole = dwell_time(sol, ClockRegion(0.0, 30.0))
    parts = dwell_time(sol, ClockRegion(0.0, 17.0)) + dwell_time(
        sol, ClockRegion(17.0, 30.0)
    )
    assert whole == pytest.approx(parts, rel=1e-13)


def test_free_potential_unit_transmission():
    sol = solve(PiecewiseConstantPotential((0.0,), ()), 0.5)
    assert sol.transmission == pytest.approx(1.0, abs=1e-15)
    assert sol.reflection == 0.0


def test_degenerate_energy_rejected():
    pot = double_barrier(0.018, 10.0, 10.0)
    with pytest.raises(InvalidParameterError,
                       match="^energy 0.018 equals a region height; local wavenumber vanishes$"):
        solve(pot, 0.018)
    with pytest.raises(InvalidParameterError):
        solve(pot, -0.01)
    with pytest.raises(InvalidParameterError):
        solve(pot, 0.0)
    # V lies one float above E and hbar is large: kappa underflows to zero
    barely_below = PiecewiseConstantPotential((0.0, 1.0), (math.nextafter(1e-300, 1.0),))
    with pytest.raises(InvalidParameterError, match="^energy 1e-300 gives a local "
                       "wavenumber that underflows to zero$"):
        solve(barely_below, 1e-300, UnitsConfig(1.0, 1e166))


def test_infinite_local_wavenumber_rejected():
    # 2m(V - E) overflows at the largest float: kappa would be inf*i and
    # T = R = nan
    pot = PiecewiseConstantPotential((0.0, 1.0), (1.7976931348623157e308,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="beyond the float range"):
            solve(pot, 1e300)
    # at a quarter of the mass 2m|V - E| stays finite, and so do T and R
    sol = solve(pot, 1e300, UnitsConfig(mass=0.25))
    assert sol.transmission == 0.0 and abs(sol.reflection) == pytest.approx(1.0)


def test_phase_and_growth_beyond_float_range_rejected():
    # at the smallest normal hbar, k*z at the far edge z = 30 overflows
    tiny_hbar = UnitsConfig(hbar=2.2250738585072014e-308)
    with pytest.raises(InvalidParameterError, match="phase k\\*z"):
        solve(double_barrier(0.018, 10.0, 10.0), 0.01, tiny_hbar)
    # q*width overflows: e^{q width} would be inf and T = R = nan
    units = UnitsConfig(hbar=1e-150)
    sol = solve(PiecewiseConstantPotential((0.0, 1e153), (1e10,)), 0.01, units)
    assert sol.transmission == 0.0 and abs(sol.reflection) == pytest.approx(1.0)
    with pytest.raises(InvalidParameterError, match="growth across a region"):
        solve(PiecewiseConstantPotential((0.0, 1e154), (1e10,)), 0.01, units)
    # a finite width whose phase kappa*width overflows inside the sweep
    with pytest.raises(InvalidParameterError, match="^a phase k\\*z leaves the float range$"):
        solve(PiecewiseConstantPotential((0.0, 1e300), (0.0,)), 1e300)


@st.composite
def stacks_to_the_float_range(draw):
    """Stacks of 1-4 regions with breakpoints anywhere in the float range,
    so some widths overflow to inf."""
    largest = 1.7976931348623157e308
    edges = st.one_of(st.floats(-largest, largest),
                      st.sampled_from([-largest, -1e308, 0.0, 1e308, largest]))
    breakpoints = sorted(draw(st.sets(edges, min_size=2, max_size=5)))
    heights = [draw(st.sampled_from([0.0, 0.005, 0.018]))
               for _ in breakpoints[1:]]
    return PiecewiseConstantPotential(tuple(breakpoints), tuple(heights))


@settings(max_examples=80, deadline=None)
@given(potential=stacks_to_the_float_range())
@example(potential=PiecewiseConstantPotential((-1e308, 1e308), (0.0,)))
def test_widths_past_the_float_range_give_numbers_or_errors(potential):
    # an infinite width made e^{-ik width} nan+nanj without an error
    try:
        sol = solve(potential, 0.01)
    except InvalidParameterError:
        pass
    else:
        for amplitude in (sol.transmission, sol.reflection):
            assert cmath.isfinite(amplitude), potential
    region = ClockRegion(*potential.support)
    for n in (5, 81):  # scalar levels, and one lane batch
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CouplingWarning)
            try:
                result = measurement_simulation(potential, region, 0.01, ClockRotor(n, 1e6))
            except TunnelClockError:
                continue
        reading = result.transmitted
        assert math.isfinite(reading.t_read) and math.isfinite(reading.spread), potential
        assert math.isfinite(result.transmitted_weight), potential


def test_reflection_phase_undefined_on_exact_zero():
    # nothing reflects off the free potential, so R has no phase
    sol = solve(PiecewiseConstantPotential((0.0,), ()), 0.5)
    assert sol.reflection == 0
    assert cmath.phase(sol.transmission) == pytest.approx(0.0, abs=1e-15)


def test_symmetric_phase_offset_energy_independent():
    # potential mirror-symmetric about the origin: R/T is purely
    # imaginary, so the phase offset is +-pi/2 at every energy.  (An
    # off-origin center z_c adds an energy-dependent 2 k z_c to the
    # reflection phase, so centering matters here.)
    pot = PiecewiseConstantPotential(
        (-15.0, -5.0, 5.0, 15.0), (0.018, 0.0, 0.018)
    )
    for E in (0.004, 0.0065, 0.009, 0.0115, 0.014):
        sol = solve(pot, E)
        assert (sol.transmission * sol.reflection.conjugate()).real == (
            pytest.approx(0.0, abs=1e-14)
        )
        offset = math.remainder(
            cmath.phase(sol.reflection) - cmath.phase(sol.transmission), math.pi
        )
        assert abs(offset) == pytest.approx(math.pi / 2, rel=1e-9)


def test_opaque_stack_no_overflow():
    # 2 q a ~ 500: raw coefficients would overflow without log scaling
    pot = double_barrier(0.018, 2000.0, 10.0)
    sol = solve(pot, 0.01)
    t_prob = abs(sol.transmission) ** 2
    assert t_prob == 0.0 or t_prob < 1e-200
    assert abs(sol.reflection) == pytest.approx(1.0, rel=1e-12)
    # interior values remain evaluable near the far edge
    val = wavefunction_at(sol, 3990.0)
    assert math.isfinite(val.real) and math.isfinite(val.imag)


def test_single_barrier_growth_beyond_float_range():
    # q * width = 1000: the growth across this one barrier alone is
    # e^1000, past the float range, so it goes into the log-scale
    sol = solve(rectangular_barrier(1.0, 1000.0), 0.5)
    assert sol.transmission == 0
    assert abs(sol.reflection) == pytest.approx(1.0, rel=1e-12)
    assert dwell_time(sol, ClockRegion(0.0, 1000.0)) == pytest.approx(1.0, rel=1e-12)


@st.composite
def random_potential_and_energy(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    heights = [
        draw(
            st.floats(
                min_value=0.004, max_value=0.03, allow_nan=False
            )
        )
        if draw(st.booleans())
        else 0.0
        for _ in range(n)
    ]
    if not any(h > 0 for h in heights):
        heights[0] = draw(
            st.floats(min_value=0.004, max_value=0.03, allow_nan=False)
        )
    widths = [
        draw(st.floats(min_value=0.5, max_value=12.0, allow_nan=False))
        for _ in range(n)
    ]
    origin = draw(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    breakpoints = [origin]
    for w in widths:
        breakpoints.append(breakpoints[-1] + w)
    vmax = max(heights)
    frac = draw(st.floats(min_value=0.2, max_value=0.9, allow_nan=False))
    energy = frac * vmax
    if any(abs(energy - h) < 1e-4 for h in heights):
        energy += 2e-4
    return PiecewiseConstantPotential(tuple(breakpoints), tuple(heights)), energy


@settings(max_examples=150, deadline=None)
@given(inst=random_potential_and_energy())
def test_unitarity_property(inst):
    potential, energy = inst
    sol = solve(potential, energy)
    defect = abs(
        abs(sol.transmission) ** 2 + abs(sol.reflection) ** 2 - 1.0
    )
    assert defect <= 1e-12


@settings(max_examples=60, deadline=None)
@given(inst=random_potential_and_energy())
def test_wavefunction_continuity_property(inst):
    potential, energy = inst
    sol = solve(potential, energy)
    for bp in potential.breakpoints:
        left_v = wavefunction_at(sol, bp - 1e-13)
        right_v = wavefunction_at(sol, bp + 1e-13)
        scale = max(1.0, abs(left_v))
        assert abs(left_v - right_v) <= 1e-9 * scale
        left_d = wavefunction_derivative_at(sol, bp - 1e-13)
        right_d = wavefunction_derivative_at(sol, bp + 1e-13)
        dscale = max(1.0, abs(left_d))
        assert abs(left_d - right_d) <= 1e-9 * dscale


@settings(max_examples=60, deadline=None)
@given(inst=random_potential_and_energy())
def test_transmission_magnitude_reciprocity(inst):
    potential, energy = inst
    fwd = solve(potential, energy)
    bwd = solve(_reflected(potential), energy)
    assert abs(fwd.transmission) == pytest.approx(
        abs(bwd.transmission), rel=1e-12, abs=1e-300
    )


def test_incident_coefficient_is_unity():
    pot = double_barrier(0.018, 10.0, 10.0)
    sol = solve(pot, 0.01)
    left = sol.wave(0)
    assert left.a == pytest.approx(1.0 + 0j, abs=1e-14)


def test_units_rescaling():
    units = UnitsConfig(mass=2.0, hbar=3.0)
    E, v0, width = 0.01, 0.018, 10.0
    q = math.sqrt(2.0 * units.mass * (v0 - E)) / units.hbar
    expected = 1.0 / (
        1.0
        + v0**2 * math.sinh(q * width) ** 2 / (4.0 * E * (v0 - E))
    )
    sol = solve(rectangular_barrier(v0, width), E, units)
    assert abs(sol.transmission) ** 2 == pytest.approx(expected, rel=1e-12)


def _full_sums(sol, mirror, region):
    """Density and overlap integrals summed over every region of both
    solutions, each with its own logs per product term, skipping the
    regions that miss the clock region: the independent route that the
    windowed integrals must reproduce bit for bit."""
    bp = sol.breakpoints
    n = len(bp) - 1
    density = 0.0
    psi2 = psichi = 0j
    for r in range(n + 2):
        lo = max(bp[r - 1] if r else -math.inf, region.z1)
        hi = min(bp[r] if r <= n else math.inf, region.z2)
        if hi <= lo:
            continue
        rw = sol.wave(r)
        density += scattering._density_integral(rw, lo - rw.anchor, hi - rw.anchor)
        chi = scattering._mirrored(mirror.wave(n + 1 - r))
        sums = []
        for w2 in (rw, chi):
            ik = 1j * rw.kappa
            shift = ik * (rw.anchor - w2.anchor)
            total = 0j
            for c1, s1 in ((rw.a, 1), (rw.b, -1)):
                for c2, s2 in ((w2.a, 1), (w2.b, -1)):
                    if c1 != 0 and c2 != 0:
                        log_coef = cmath.log(c1) + cmath.log(c2) + s2 * shift
                        total += scattering._exp_integral(
                            log_coef, (s1 + s2) * ik, lo - rw.anchor, hi - rw.anchor
                        )
            sums.append(total)
        psi2 += sums[0]
        psichi += sums[1]
    return density, psi2, psichi


def _window_cases():
    """Seeded potentials and clock regions: endpoints on breakpoints,
    regions outside the support, regions covering the whole potential and
    the free potential with a single breakpoint. The last two potentials
    pin the mirror path where it leaves plain arithmetic: a barrier with
    q * width = 1000, whose sweeps fold, and a 240-region stack opaque
    enough at mass 1000 that both sweeps rescale."""
    rng = random.Random(11)
    heights = [rng.choice((rng.uniform(0.004, 0.03), 0.0, -rng.uniform(0.002, 0.02)))
               for _ in range(120)]
    bps = [-3.0]
    for _ in heights:
        bps.append(bps[-1] + rng.uniform(0.3, 4.0))
    stack = PiecewiseConstantPotential(tuple(bps), tuple(heights))
    # the stack of the generic-stack golden digests in test_cli.py
    opaque_rng = random.Random(8)
    heights, bps = [], [0.0]
    for _ in range(240):
        u = opaque_rng.random()
        if u < 0.5:
            heights.append(opaque_rng.uniform(0.004, 0.03))
        elif u < 0.75:
            heights.append(0.0)
        else:
            heights.append(-opaque_rng.uniform(0.002, 0.02))
        bps.append(bps[-1] + opaque_rng.uniform(0.25, 2.0))
    opaque = PiecewiseConstantPotential(tuple(bps), tuple(heights))
    natural = UnitsConfig()
    cases = []
    for pot, energy, units in (
        (stack, 0.012, natural), (stack, 0.04, natural),
        (double_barrier(0.018, 10.0, 10.0), 0.01, natural),
        (PiecewiseConstantPotential((2.5,), ()), 0.3, natural),
        (PiecewiseConstantPotential((0.0, 1000.0), (1.0,)), 0.5, natural),
        (opaque, 0.012, UnitsConfig(mass=1000.0)),
    ):
        bp = pot.breakpoints
        lo, hi = bp[0], bp[-1]
        regions = [
            (lo - 5.0, hi + 5.0), (lo, hi), (lo - 5.0, lo), (hi, hi + 5.0),
            (lo - 9.0, lo - 1.0), (hi + 1.0, hi + 9.0), (lo - 1.0, hi), (lo, hi + 1.0),
        ]
        for _ in range(12):
            i, j = sorted(rng.sample(range(len(bp)), 2)) if len(bp) > 1 else (0, 0)
            regions.append((bp[i], bp[j]) if i < j else (bp[i] - 1.0, bp[i] + 1.0))
            z1 = rng.uniform(lo - 4.0, hi + 3.0)
            regions.append((z1, z1 + rng.uniform(1e-9, 0.5 * (hi - lo) + 4.0)))
            regions.append((bp[i], rng.uniform(bp[i] + 1e-6, hi + 4.0)))
        cases += [(pot, energy, units, ClockRegion(*zs))
                  for zs in regions if zs[0] < zs[1]]
    return cases


def _hex(values):
    return [part.hex() for v in values for part in (v.real, v.imag)]


def test_windowed_integrals_equal_the_full_sum():
    folds = rescales = 0
    for pot, energy, units, region in _window_cases():
        sol = solve(pot, energy, units)
        mirror = solve(_reflected(pot), energy, units)
        folds += len(pot.heights) == 1 and sol.logscale[0] > 0 < mirror.logscale[0]
        rescales += len(pot.heights) == 240 and sol.logscale[0] > 0 < mirror.logscale[0]
        density, psi2, psichi = _full_sums(sol, mirror, region)
        dwell = units.mass / (units.hbar * sol.wavenumber) * density
        assert dwell_time(sol, region).hex() == dwell.hex()
        assert _hex(overlap_integrals(sol, region)) == _hex((density, psi2, psichi))
    assert folds > 0 and rescales > 0


def test_a_vanishing_incident_coefficient_is_a_numerical_failure():
    # matching at the edge of a barrier 1e-300 wide and 1e40 high cancels
    # the incident coefficient to exactly zero
    thin = PiecewiseConstantPotential((0.0, 1e-300, 3.0), (1e40, 0.0))
    message = "the incident coefficient cancels to zero; T and R are undefined"
    with pytest.raises(TunnelClockError) as caught:
        solve(thin, 0.01)
    assert type(caught.value) is TunnelClockError and str(caught.value) == message
    # the lanes mark the zero divisor and raise the scalar error
    _, levels = scattering._shifted_solver(thin, ClockRegion(0.0, 3.0), 0.01, UnitsConfig())
    for count in (3, scattering._LANE_BATCH_MIN):
        with pytest.raises(TunnelClockError) as caught:
            levels([1e-6 * m for m in range(count)])
        assert type(caught.value) is TunnelClockError and str(caught.value) == message
