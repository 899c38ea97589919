"""Rotor levels solved as one batch of float64 lanes against the scalar
per-level solve: equal bits, the same exceptions at the same row, and the
same clock-sim output whichever path a call takes."""

import math
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tunnelclock import cli, rotor, scattering
from tunnelclock.errors import TunnelClockError
from tunnelclock.potentials import (
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
    double_barrier,
)
from tunnelclock.rotor import ClockRotor, measurement_series

# Every batch takes the lanes below the first and the scalar loop above
# the second.
ALL_LANES, NO_LANES = 1, sys.maxsize

# The largest float below 0.25: 0.25 plus it rounds onto 0.5, so a level
# shifted by it lifts a 0.25 floor exactly onto E = 0.5 although the shift
# stays inside the 0.25 energy margin.
BELOW_QUARTER = math.nextafter(0.25, 0.0)
FLOOR = PiecewiseConstantPotential((0.0, 1.0), (0.25,))
# N = 5 at this tau has omega == BELOW_QUARTER: row 0 is too strong and
# level m = 2 of row 1 lands on E.
ONTO_E_TAU = 5.02654824574367


def _positive(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def _outcome(function, *args):
    """The exact bits of a (T, R) result, or the type and text of the
    exception raised for it."""
    try:
        value = function(*args)
    except Exception as error:  # compared, not handled
        value = error
    return _bits(value)


def _bits(value):
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    return tuple(part.hex() for z in value for part in (z.real, z.imag))


@st.composite
def stacks(draw):
    """(potential, region, energy, units): stacks of barriers, free gaps
    and wells at energies below or above every height, opaque ones whose
    sweep rescales or folds, and clock regions that cover the support,
    stick out of it or lie strictly inside it."""
    count = draw(st.integers(1, 5))
    opaque = draw(st.booleans())
    heights = draw(st.lists(
        st.one_of(_positive(0.004, 0.03), st.just(0.0), _positive(-0.02, -0.002)),
        min_size=count, max_size=count))
    # q*w of a 0.018 barrier at E = 0.01 passes the rescale limit near
    # w = 2200 and the exponential's range near w = 5600
    widths = draw(st.lists(_positive(500.0, 7000.0) if opaque else _positive(0.2, 8.0),
                           min_size=count, max_size=count))
    breakpoints = [0.0]
    for width in widths:
        breakpoints.append(breakpoints[-1] + width)
    potential = PiecewiseConstantPotential(tuple(breakpoints), tuple(heights))
    top = max(heights)
    energy = draw(st.one_of(_positive(0.001, 0.03), _positive(1.01, 3.0).map(
        lambda f: f * max(top, 0.001))))
    lo, hi = potential.support
    kind = draw(st.sampled_from(["support", "outside", "inside"]))
    if kind == "support":
        region = ClockRegion(lo, hi)
    elif kind == "outside":
        region = ClockRegion(lo - draw(_positive(0.1, 5.0)), hi + draw(_positive(0.1, 5.0)))
    else:
        u1, u2 = sorted(draw(st.lists(_positive(0.01, 0.99), min_size=2, max_size=2,
                                      unique=True)))
        region = ClockRegion(lo + u1 * (hi - lo), lo + u2 * (hi - lo))
    units = draw(st.sampled_from([UnitsConfig(), UnitsConfig(mass=2.0, hbar=0.5)]))
    return potential, region, energy, units


@st.composite
def level_cases(draw):
    """A stack as above, fractions of its coupling bound to shift levels
    by, and shifts that underflowed to +-0.0, a subnormal one, shifts that
    put an interval's height on or next to E, and ones whose wavenumber
    leaves the float range."""
    potential, region, energy, units = draw(stacks())
    fractions = draw(st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=40))
    specials = draw(st.lists(st.sampled_from(
        [0.0, -0.0, 5e-324, sys.float_info.max, -sys.float_info.max,
         *(energy - base for base in set(potential.heights))]), max_size=4))
    return potential, region, energy, units, fractions, specials


@settings(max_examples=150, deadline=None)
@given(case=level_cases())
@example(case=(FLOOR, ClockRegion(0.0, 1.0), 0.5, UnitsConfig(), [],
               [BELOW_QUARTER, -BELOW_QUARTER, 0.0]))
def test_lanes_equal_the_scalar_level(case):
    potential, region, energy, units, fractions, specials = case
    try:
        bound, level, levels = rotor._level_solver(potential, region, energy, units)
    except TunnelClockError:
        return
    shifts = [fraction * bound for fraction in fractions] + specials
    got = levels(shifts)
    assert len(got) == len(shifts)
    for shift, solved in zip(shifts, got):
        assert _bits(solved) == _outcome(level, shift), shift


def _series_outcome(lanes_from, *args):
    """What measurement_series returns or raises, the warnings it gave and
    how many rows it read, with batches of at least lanes_from shifts
    taken as lanes."""
    reading = rotor._reading
    read = []

    def counting(*call):
        read.append(None)
        return reading(*call)

    with mock.patch.object(rotor, "_LANE_BATCH_MIN", lanes_from), \
            mock.patch.object(rotor, "_reading", counting), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = measurement_series(*args)
        except Exception as error:  # compared, not handled
            value = (type(error).__name__, str(error))
    return value, [(w.category, str(w.message)) for w in caught], len(read)


@settings(max_examples=60, deadline=None)
@given(problem=stacks(), n=st.sampled_from([3, 5, 21]), strength=_positive(0.2, 1.6),
       halvings=st.integers(0, 3))
@example(problem=(FLOOR, ClockRegion(0.0, 1.0), 0.5, UnitsConfig()), n=5,
         strength=None, halvings=2)
def test_series_raises_where_the_scalar_loop_raises(problem, n, strength, halvings):
    potential, region, energy, units = problem
    if strength is None:
        first = ClockRotor(n, ONTO_E_TAU)
    else:
        try:
            bound = rotor._level_solver(potential, region, energy, units)[0]
            # row 0's largest shift is this multiple of the energy margin
            j = (n - 1) // 2
            first = ClockRotor(n, j * units.hbar * math.tau / (n * strength * bound))
        except (TunnelClockError, ZeroDivisionError):
            return
    args = (potential, region, energy, first, halvings, units)
    assert _series_outcome(ALL_LANES, *args) == _series_outcome(NO_LANES, *args)


def test_the_onto_e_series_raises_at_row_one():
    value, caught, read = _series_outcome(
        ALL_LANES, FLOOR, ClockRegion(0.0, 1.0), 0.5, ClockRotor(5, ONTO_E_TAU), 2, UnitsConfig())
    assert value[0] == "DegenerateEnergyError"
    assert read == 2 and len(caught) == 1


def test_opaque_lanes_fall_back_where_the_sweep_rescales():
    # both 1150-wide barriers together grow the wave past the rescale
    # limit for 362 of row 0's 401 levels; each of those runs the sweep
    bound, level, levels = rotor._level_solver(
        double_barrier(0.018, 1150.0, 10.0), ClockRegion(0.0, 2310.0), 0.01, UnitsConfig())
    first = ClockRotor(401, 4000.0)
    shifts = [float(m) * first.omega for m in first.levels.tolist()]
    with mock.patch.object(scattering, "_sweep", wraps=scattering._sweep) as sweep:
        got = levels(shifts)
    assert sweep.call_count == 362
    assert [_bits(solved) for solved in got] == [_outcome(level, s) for s in shifts]


CLOCK_SIM_COMMANDS = [
    # plain lanes, and a clock region strictly inside the support
    "clock-sim --N 201 --tau 40000 --halvings 2 --E 0.01 --V0 0.018 --a 10 --d 10"
    " --z1 4 --z2 27.5",
    # opaque: most lanes fall back to the scalar sweep
    "clock-sim --N 101 --tau 4000 --halvings 1 --E 0.01 --V0 0.018 --a 1150 --d 10",
    # coupling warnings, and a row too strong for the energy margin
    "clock-sim --N 101 --tau 90 --halvings 3 --E 0.01 --V0 0.018 --a 10 --d 10",
    # row 1's tau overflows the clock period after row 0 was read
    "clock-sim --N 101 --tau 1e306 --halvings 2 --E 0.01 --V0 0.018 --a 10 --d 10",
]


def _clock_sim(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


@pytest.mark.parametrize("command", CLOCK_SIM_COMMANDS)
def test_clock_sim_output_does_not_depend_on_the_lane_threshold(monkeypatch, capsys, command):
    monkeypatch.setattr(rotor, "_LANE_BATCH_MIN", NO_LANES)
    scalar = _clock_sim(command.split(), capsys)
    monkeypatch.setattr(rotor, "_LANE_BATCH_MIN", ALL_LANES)
    assert _clock_sim(command.split(), capsys) == scalar
