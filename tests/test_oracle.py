"""The three routes and the rotor's level table against a 50-digit
transfer-matrix reference (tests/oracle.py).

The contract: every output agrees with the reference to a tolerance, or
it is None or NaN, or the row that prints it is flagged, or the call
raises a TunnelClockError. The draws cover wells, energies above every
height, deep opaque stacks (|T|^2 far below 1e-12), double-barrier
resonances and energies within 1e-12 relative of a height. Each known
break of the contract is a strict xfail example naming its FOUND line in
CHANGES.md, and the property tests accept the outputs it breaks only
where its condition holds.
"""

import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath import mp, mpf

import oracle
from tunnelclock import closedform, scattering
from tunnelclock.cli import RESIDUAL_TOLERANCE
from tunnelclock.clocktimes import clock_times
from tunnelclock.errors import TunnelClockError
from tunnelclock.potentials import (
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
    double_barrier,
)
from tunnelclock.scattering import dwell_time, solve

# Relative tolerances, each ten times or more the largest error measured
# where the output was neither flagged nor a known break, over random
# draws (7500 generic cases, 2000 of rotor levels, 4000 double barriers):
# 1.9e-12 for T and R of solve and the levels; 6.8e-10 for the generic
# t_T and 9.5e-10 for the closed-form t_between, the worst of the times.
SOLVE_TOLERANCE = 1e-10
TIME_TOLERANCE = 1e-8

# A difference below the smallest normal float counts as agreement: a
# value that small has lost bits to underflow.
TINY = sys.float_info.min


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def _resonant_gap(k, q, n):
    """The n-th gap width at which a double barrier of barrier decay q
    transmits fully at wavenumber k: sin(kd - phi0) = 0."""
    phi0 = math.atan2(2.0 * k * q, k * k - q * q) % math.pi
    return (phi0 + n * math.pi) / k


@st.composite
def _stack(draw, heights, widths, count):
    heights = draw(st.lists(heights, min_size=count, max_size=count))
    breakpoints = [draw(_floats(-20.0, 20.0))]
    for _ in heights:
        breakpoints.append(breakpoints[-1] + draw(widths))
    return PiecewiseConstantPotential(tuple(breakpoints), tuple(heights))


@st.composite
def cases(draw):
    """(stratum, potential, region, energy, units) from one of five strata:
    wells, energies above every height, opaque stacks, double barriers on
    or near a resonant gap, and energies within 1e-12 relative of a
    positive height; clock regions over, around or inside the support."""
    stratum = draw(st.sampled_from(["well", "above", "opaque", "resonance", "edge"]))
    units = draw(st.sampled_from([UnitsConfig(), UnitsConfig(mass=2.0, hbar=0.5)]))
    count = draw(st.integers(1, 6))
    mixed = st.one_of(_floats(0.004, 0.03), st.just(0.0), _floats(-0.03, -0.002))
    if stratum == "well":
        potential = draw(_stack(st.one_of(_floats(-0.03, -0.002), st.just(0.0)),
                                _floats(0.2, 12.0), count))
        energy = draw(_floats(1e-4, 0.05))
    elif stratum == "above":
        potential = draw(_stack(mixed, _floats(0.2, 12.0), count))
        energy = draw(_floats(1.001, 3.0)) * max(0.002, *potential.heights)
    elif stratum == "opaque":
        # q * width of a barrier is 20 to 940 in natural units: |T|^2
        # below 1e-17, and often below the float range
        potential = draw(_stack(st.one_of(_floats(0.02, 0.05), st.just(0.0)),
                                _floats(200.0, 3000.0), count))
        if max(potential.heights) == 0.0:
            potential = PiecewiseConstantPotential(potential.breakpoints[:2], (0.03,))
        energy = draw(_floats(0.001, 0.015))
    elif stratum == "resonance":
        v0, a = draw(_floats(0.005, 0.05)), draw(_floats(1.0, 20.0))
        energy = draw(_floats(0.05, 0.95)) * v0
        k, q = (math.sqrt(2.0 * units.mass * e) / units.hbar for e in (energy, v0 - energy))
        offset = draw(st.one_of(st.just(0.0), _floats(-12.0, -3.0).map(lambda e: 10.0 ** e),
                                _floats(-12.0, -3.0).map(lambda e: -10.0 ** e)))
        d = _resonant_gap(k, q, draw(st.integers(0, 3))) * (1.0 + offset)
        potential = double_barrier(v0, a, d)
    else:
        potential = draw(_stack(mixed, _floats(0.2, 12.0), count))
        tops = [v for v in potential.heights if v > 0.0]
        if not tops:
            potential = PiecewiseConstantPotential(potential.breakpoints[:2], (0.018,))
            tops = [0.018]
        offset = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(_floats(-16.0, -12.0))
        energy = draw(st.sampled_from(tops)) * (1.0 + offset)
    lo, hi = potential.support
    kind = draw(st.sampled_from(["support", "outside", "inside"]))
    if kind == "support":
        region = ClockRegion(lo, hi)
    elif kind == "outside":
        region = ClockRegion(lo - draw(_floats(0.1, 5.0)), hi + draw(_floats(0.1, 5.0)))
    else:
        u1, u2 = sorted(draw(st.lists(_floats(0.01, 0.99), min_size=2, max_size=2,
                                      unique=True)))
        z1 = lo + u1 * (hi - lo)
        region = ClockRegion(z1, max(lo + u2 * (hi - lo), math.nextafter(z1, math.inf)))
    return stratum, potential, region, energy, units


@st.composite
def double_barriers(draw):
    """(stratum, V0, a, d, E) of a symmetric double barrier; above the
    barrier top the closed forms are NaN."""
    stratum = draw(st.sampled_from(["generic", "above", "opaque", "resonance", "edge"]))
    v0 = draw(_floats(0.005, 0.05))
    a = draw(_floats(200.0, 3000.0) if stratum == "opaque" else _floats(0.5, 30.0))
    d = draw(_floats(0.5, 50.0))
    energy = draw(_floats(0.02, 0.98)) * v0
    if stratum == "above":
        energy = draw(_floats(1.0, 3.0)) * v0
    elif stratum == "resonance":
        k, q = math.sqrt(2.0 * energy), math.sqrt(2.0 * (v0 - energy))
        offset = draw(st.one_of(st.just(0.0), _floats(-12.0, -3.0).map(lambda e: 10.0 ** e),
                                _floats(-12.0, -3.0).map(lambda e: -10.0 ** e)))
        d = _resonant_gap(k, q, draw(st.integers(0, 3))) * (1.0 + offset)
    elif stratum == "edge":
        energy = v0 * (1.0 - 10.0 ** draw(_floats(-16.0, -12.0)))
    return stratum, v0, a, d, energy


def relative_error(value, ref):
    """|value - ref| / |ref| at 50 digits; a difference below TINY is 0."""
    with mp.workdps(oracle.DIGITS):
        diff = abs(mp.mpmathify(value) - ref)
        if diff <= TINY:
            return 0.0
        return float(diff / abs(ref)) if ref != 0 else math.inf


def generic_outputs(potential, region, energy, units):
    """{name: (relative error, tolerance)} of every output of solve,
    dwell_time and clock_times that is a number, whether the `times
    --potential` row printing them is flagged, and the reference; None
    where a call raises a TunnelClockError."""
    try:
        psi = solve(potential, energy, units)
        dwell = dwell_time(psi, region)
        ct = clock_times(potential, region, energy, units)
    except TunnelClockError:
        return None
    ref = oracle.reference(potential.breakpoints, potential.heights, energy,
                           region.z1, region.z2, units.mass, units.hbar)
    expected = oracle.times(ref, units.mass, units.hbar)
    outputs = {
        "T": (psi.transmission, ref.transmission, SOLVE_TOLERANCE),
        "R": (psi.reflection, ref.reflection, SOLVE_TOLERANCE),
        "dwell_time": (dwell, expected["dwell"], TIME_TOLERANCE),
        "dwell": (ct.dwell, expected["dwell"], TIME_TOLERANCE),
        "transmitted": (ct.transmitted, expected["transmitted"], TIME_TOLERANCE),
        "reflected": (ct.reflected, expected["reflected"], TIME_TOLERANCE),
    }
    errors = {name: (relative_error(value, exact), tolerance)
              for name, (value, exact, tolerance) in outputs.items() if value is not None}
    return errors, not ct.decomposition_residual <= RESIDUAL_TOLERANCE, ref


def closed_form_outputs(v0, a, d, energy, units=UnitsConfig()):
    """As generic_outputs, for the closed forms of grid at one set, with
    the reference times in place of the reference; none where grid gives
    NaN. A closed-form row is flagged as the CLI flags it: near a
    resonance, or where t_between or t_barriers is negative."""
    g = closedform.grid(v0, a, d, energy, units)
    if not g.ok[0]:
        return {}, True, None
    with mp.workdps(oracle.DIGITS):
        # the exact breakpoints 0, a, a + d and 2a + d
        gap_end = mp.fadd(a, d, exact=True)
        end = mp.fadd(gap_end, a, exact=True)
        ref = oracle.reference((0.0, mpf(a), gap_end, end), (v0, 0.0, v0), energy,
                               0.0, end, units.mass, units.hbar)
        m, hbar, k = mpf(units.mass), mpf(units.hbar), ref.wavenumber
        q = mp.sqrt(2 * m * (mpf(v0) - mpf(energy))) / hbar
        scale = m / (hbar * k)
        expected = {
            "t_whole": scale * mp.fsum(ref.density),
            "t_between": scale * ref.density[1],
            "t_barriers": scale * (ref.density[0] + ref.density[2]),
            "t_opaque": 2 * m * k / (hbar * q * (k * k + q * q)),
            "trans_prob": abs(ref.transmission) ** 2,
        }
    errors = {name: (relative_error(float(getattr(g, name)[0]), exact), TIME_TOLERANCE)
              for name, exact in expected.items()}
    return errors, bool(closedform._flags(g)[0]), expected


def _breaks(errors, flagged):
    """The outputs that break the contract: they disagree and their row
    is not flagged."""
    return set() if flagged else {name for name, (error, tolerance) in errors.items()
                                  if not error <= tolerance}


# Known breaks of the contract. Each is a FOUND line of CHANGES.md and a
# strict xfail example below; the property tests accept the outputs a
# break names only where its condition holds. Mending a break makes its
# example pass: then delete the example and its condition here.
SMALL_KAPPA_WIDTH = 1e-4  # FOUND 5 and 46: cancellation about eps / (kappa w)^2
SMALL_REFLECTION = 1e-6  # FOUND 32: R, and t_R from it, by cancellation
SMALL_BETWEEN = 1e-5  # FOUND 47: t_between below this fraction of t_whole
SHARP_RESONANCE = 1e3  # FOUND 48: |E d(ln T)/dE| past which rounding shows


def _sharpness(breakpoints, heights, energy, units):
    """|E d(ln T)/dE| from the reference. A sharp resonance and its tails
    make it large, and so, to about the sum of q * width, do thick
    barriers, whose outputs do agree; a few opaque draws are excused too."""
    with mp.workdps(oracle.DIGITS):
        step = mpf(10) ** -25
        t0, t1 = (oracle.reference(breakpoints, heights, e, breakpoints[0], breakpoints[0],
                                   units.mass, units.hbar).transmission
                  for e in (mpf(energy), mpf(energy) * (1 + step)))
        return float(abs((t1 - t0) / (step * t0)))


def _small_kappa_width(breakpoints, heights, energy, units):
    """Whether some region's |kappa| * width is below SMALL_KAPPA_WIDTH."""
    return any(math.sqrt(2.0 * units.mass * abs(energy - v)) / units.hbar * (hi - lo)
               < SMALL_KAPPA_WIDTH
               for lo, hi, v in zip(breakpoints, breakpoints[1:], heights))


def generic_verdict(case):
    """(errors, flagged, excused) of a generic case, or None where a call
    raised a TunnelClockError."""
    _, potential, region, energy, units = case
    result = generic_outputs(potential, region, energy, units)
    if result is None:
        return None
    errors, flagged, ref = result
    excused = set()
    if _small_kappa_width(potential.breakpoints, potential.heights, energy, units):
        excused |= set(errors)
    if abs(ref.reflection) ** 2 < SMALL_REFLECTION:
        excused |= {"R", "reflected"}
    if _sharpness(potential.breakpoints, potential.heights, energy,
                         units) > SHARP_RESONANCE:
        excused |= set(errors)
    return errors, flagged, excused


def closed_form_verdict(case):
    """(errors, flagged, excused) of a double-barrier case."""
    _, v0, a, d, energy = case
    errors, flagged, expected = closed_form_outputs(v0, a, d, energy)
    excused = set()
    if _small_kappa_width((0.0, a), (v0,), energy, UnitsConfig()):
        excused |= set(errors)
    if expected and expected["t_between"] < SMALL_BETWEEN * expected["t_whole"]:
        excused.add("t_between")
    return errors, flagged, excused


def level_verdicts(case, fractions):
    """(errors, flagged, excused) of each rotor level that solved, with
    the shifts fractions of the coupling bound, each against the reference
    at the float heights it used; a level that raises must raise a
    TunnelClockError. Each shift is solved on its own, since a call
    raises for the first failing shift of its list."""
    _, potential, region, energy, units = case
    try:
        bound, levels = scattering._shifted_solver(potential, region, energy, units)
    except TunnelClockError:
        return []
    shifts = [fraction * bound for fraction in fractions]
    cuts = tuple(sorted({*potential.breakpoints, region.z1, region.z2}))
    verdicts = []
    for shift in shifts:
        try:
            (level,) = levels([shift])
        except TunnelClockError:
            continue
        heights = tuple(potential(lo) + (shift if region.z1 <= lo and hi <= region.z2 else 0.0)
                        for lo, hi in zip(cuts, cuts[1:]))
        ref = oracle.reference(cuts, heights, energy, region.z1, region.z2,
                               units.mass, units.hbar)
        errors = {"T": (relative_error(level[0], ref.transmission), SOLVE_TOLERANCE),
                  "R": (relative_error(level[1], ref.reflection), SOLVE_TOLERANCE)}
        excused = set()
        if _small_kappa_width(cuts, heights, energy, units):
            excused |= set(errors)
        if abs(ref.reflection) ** 2 < SMALL_REFLECTION:
            excused.add("R")
        if _sharpness(cuts, heights, energy, units) > SHARP_RESONANCE:
            excused |= set(errors)
        verdicts.append((errors, False, excused))
    return verdicts


PROPERTY = settings(deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


@settings(PROPERTY, max_examples=150)
@given(case=cases())
def test_generic_route_meets_the_contract(case):
    verdict = generic_verdict(case)
    if verdict is not None:
        errors, flagged, excused = verdict
        assert _breaks(errors, flagged) <= excused


@settings(PROPERTY, max_examples=150)
@given(case=double_barriers())
def test_closed_forms_meet_the_contract(case):
    errors, flagged, excused = closed_form_verdict(case)
    assert _breaks(errors, flagged) <= excused


@settings(PROPERTY, max_examples=150)
@given(case=double_barriers())
def test_resonance_proximity_meets_the_reference(case):
    # grid takes |sin(kd - phi0)| from the resonance denominator; the
    # reference takes it from phi0 = atan2(2kq, k^2 - q^2) at 50 digits,
    # from the same float inputs
    _, v0, a, d, energy = case
    if not energy < v0:
        return
    units = UnitsConfig()
    proximity = float(closedform.grid(v0, a, d, energy, units).proximity[0])
    with mp.workdps(oracle.DIGITS):
        m, hbar = mpf(units.mass), mpf(units.hbar)
        k = mp.sqrt(2 * m * mpf(energy)) / hbar
        q = mp.sqrt(2 * m * (mpf(v0) - mpf(energy))) / hbar
        ref = float(abs(mp.sin(k * mpf(d) - mp.atan2(2 * k * q, k * k - q * q))))
    assert abs(proximity - ref) <= 1e-12, (proximity, ref)
    cutoff = closedform.NEAR_RESONANCE_CUTOFF
    if abs(ref - cutoff) > 1e-12:
        assert (proximity < cutoff) == (ref < cutoff)


@settings(PROPERTY, max_examples=100)
@given(v0=_floats(0.005, 0.05), a=_floats(0.5, 30.0), d=_floats(0.5, 50.0),
       fraction=_floats(0.02, 0.98), shift=_floats(-0.9, 0.9))
def test_perturbed_amplitude_meets_the_reference(v0, a, d, fraction, shift):
    # the coupling c shifts the whole region (0, 2a + d); at c = 0, grid's
    # trans_prob is the amplitude's squared modulus
    energy = fraction * v0
    coupling = shift * min(energy, v0 - energy)
    params = closedform.DoubleBarrierParams(V0=v0, a=a, d=d, E=energy)
    with mp.workdps(oracle.DIGITS):
        gap_end = mp.fadd(a, d, exact=True)
        end = mp.fadd(gap_end, a, exact=True)
        ref = oracle.reference((0.0, mpf(a), gap_end, end),
                               (v0 + coupling, coupling, v0 + coupling), energy, 0.0, end)
    amplitude = closedform.perturbed_amplitude(params, coupling)
    assert relative_error(amplitude, ref.transmission) <= SOLVE_TOLERANCE
    trans_prob = float(closedform.grid(v0, a, d, energy).trans_prob[0])
    squared = abs(closedform.perturbed_amplitude(params)) ** 2
    assert relative_error(trans_prob, squared) <= SOLVE_TOLERANCE


@settings(PROPERTY, max_examples=40)
@given(case=cases(), fractions=st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=5))
def test_rotor_levels_meet_the_contract(case, fractions):
    for errors, flagged, excused in level_verdicts(case, fractions):
        assert _breaks(errors, flagged) <= excused


def _generic(potential, energy, z1, z2):
    errors, flagged, _ = generic_outputs(potential, ClockRegion(z1, z2), energy, UnitsConfig())
    return errors, flagged


def _closed_form(v0, a, d, energy):
    return closed_form_outputs(v0, a, d, energy)[:2]


def _known_break(line, what, outputs, tag=""):
    return pytest.param(outputs, id=f"found-{line}{tag}", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"CHANGES.md line {line}: FOUND, {what}"))


BARRIERS = double_barrier(0.018, 10.0, 10.0)
KNOWN_BREAKS = [
    _known_break(5, "precision lost near a region height, residual 2.7e-7",
                 lambda: _generic(BARRIERS, 0.018 * (1.0 - 1e-9), 0.0, 30.0)),
    _known_break(9, "closed-form terms cancel at a = 1e100",
                 lambda: _closed_form(0.018, 1e100, 10.0, 0.01)),
    _known_break(32, "t_R just above PROB_FLOOR, |R|^2 = 7.8e-10",
                 lambda: _generic(double_barrier(0.018, 10.0, 10.435376661736068), 0.01,
                                  0.0, 30.43537666173607)),
    _known_break(41, "wrong T beside a thin, tall barrier",
                 lambda: _generic(PiecewiseConstantPotential((0.0, 1e-300, 3.0), (1e30, 0.0)),
                                  0.01, 0.0, 3.0)),
    _known_break(46, "closed forms within 1e-12 relative of V0",
                 lambda: _closed_form(0.03, 0.5294237758262942, 47.63260046851378,
                                      0.029999999999999995)),
    _known_break(48, "a sharp resonance, |E dlnT/dE| = 1.1e9",
                 lambda: _generic(double_barrier(0.018, 80.0, 32.53432217354091), 0.01,
                                  0.0, 192.5343221735409)),
    _known_break(50, "closed forms at 1 - E/V0 = 4.6e-6, t_barriers 3.3e-7 off",
                 lambda: _closed_form(0.00696522178096016, 5.409398729855937,
                                      54.69251146895447, 0.006965189929666326), "-a"),
    _known_break(50, "closed forms at 1 - E/V0 = 3.1e-5, t_barriers 4.4e-8 off",
                 lambda: _closed_form(0.016211963175265624, 4.259245966118135,
                                      8.322728629690165, 0.01621145758625175), "-b"),
]


@pytest.mark.parametrize("outputs", KNOWN_BREAKS)
def test_known_break(outputs):
    errors, flagged = outputs()
    assert not _breaks(errors, flagged)


@pytest.mark.parametrize("params", [
    pytest.param((0.018, 1e-300, 10.0, 0.01), id="found-43"),
    pytest.param((0.029, 200.0, 15.9, 0.0167), id="found-47"),
])
def test_negative_closed_form_times_are_flagged(params):
    # FOUND 43 (t_barriers < 0 for a vanishing barrier) and FOUND 47
    # (t_between of wide barriers) still print wrong times, but flagged:
    # one of them is negative, which no dwell time can be
    errors, flagged = _closed_form(*params)
    assert flagged
    assert {name for name, (error, tolerance) in errors.items() if not error <= tolerance}
