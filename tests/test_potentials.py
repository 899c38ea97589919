"""Potential construction, evaluation, and region perturbation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tunnelclock.errors import InvalidParameterError
from tunnelclock.potentials import (
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
    double_barrier,
    perturb,
)


def test_double_barrier_layout():
    pot = double_barrier(0.018, 10.0, 10.0)
    assert pot.breakpoints == (0.0, 10.0, 20.0, 30.0)
    assert pot.heights == (0.018, 0.0, 0.018)


def test_double_barrier_total_width_small_gap():
    pot = double_barrier(1.0, 1.0, 1e-12)
    lo, hi = pot.support
    assert hi - lo == pytest.approx(2.0, abs=1e-9)


def test_double_barrier_last_breakpoint():
    pot = double_barrier(0.018, 30.0, 5.0)
    assert pot.breakpoints[-1] == 65.0


def test_evaluate_half_open_convention():
    pot = double_barrier(0.018, 10.0, 10.0)
    assert pot(5.0) == 0.018
    assert pot(15.0) == 0.0
    assert pot(-1.0) == 0.0
    # at a breakpoint the region to the right wins
    assert pot(10.0) == 0.0
    assert pot(20.0) == 0.018
    assert pot(30.0) == 0.0


def test_breakpoints_must_increase():
    with pytest.raises(InvalidParameterError):
        PiecewiseConstantPotential((0.0, 0.0, 1.0), (1.0, 2.0))
    with pytest.raises(InvalidParameterError):
        PiecewiseConstantPotential((1.0, 0.0), (1.0,))


def test_at_least_one_breakpoint_required():
    with pytest.raises(InvalidParameterError, match="^at least one breakpoint is required$"):
        PiecewiseConstantPotential((), ())


def test_heights_length_checked():
    with pytest.raises(InvalidParameterError):
        PiecewiseConstantPotential((0.0, 1.0), (1.0, 2.0))


def test_region_validation():
    with pytest.raises(InvalidParameterError):
        ClockRegion(1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ClockRegion(2.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ClockRegion(0.0, math.inf)


def test_units_validation():
    with pytest.raises(InvalidParameterError):
        UnitsConfig(mass=0.0)
    with pytest.raises(InvalidParameterError):
        UnitsConfig(hbar=-1.0)


def test_perturb_middle_region():
    pot = double_barrier(0.018, 10.0, 10.0)
    eps = 1e-3
    shifted = perturb(pot, ClockRegion(10.0, 20.0), eps)
    assert shifted(15.0) == pytest.approx(eps)
    assert shifted(5.0) == 0.018
    assert shifted(25.0) == 0.018


def test_perturb_zero_strength_is_identity():
    pot = double_barrier(0.018, 10.0, 10.0)
    same = perturb(pot, ClockRegion(3.0, 17.0), 0.0)
    for z in (-1.0, 0.0, 3.0, 5.0, 10.0, 16.9, 17.0, 25.0, 31.0):
        assert same(z) == pot(z)


@pytest.mark.parametrize("strength", [math.inf, -math.inf, math.nan])
def test_perturb_strength_must_be_finite(strength):
    pot = double_barrier(0.018, 10.0, 10.0)
    with pytest.raises(InvalidParameterError, match="^perturbation strength must be finite$"):
        perturb(pot, ClockRegion(0.0, 30.0), strength)


def test_perturb_free_builds_barrier():
    free = PiecewiseConstantPotential((0.0,), ())
    shifted = perturb(free, ClockRegion(0.0, 4.0), 0.25)
    assert shifted(2.0) == 0.25
    assert shifted(-0.5) == 0.0
    assert shifted(4.5) == 0.0


def test_perturb_region_beyond_support():
    pot = double_barrier(0.018, 10.0, 10.0)
    shifted = perturb(pot, ClockRegion(-5.0, 35.0), 0.001)
    assert shifted(-2.0) == pytest.approx(0.001)
    assert shifted(15.0) == pytest.approx(0.001)
    assert shifted(5.0) == pytest.approx(0.019)
    assert shifted(40.0) == 0.0


@settings(max_examples=100)
@given(
    z1=st.floats(min_value=-8.0, max_value=28.0, allow_nan=False),
    width=st.floats(min_value=1e-3, max_value=20.0, allow_nan=False),
    strength=st.floats(min_value=-0.02, max_value=0.02, allow_nan=False),
    z=st.floats(min_value=-12.0, max_value=45.0, allow_nan=False),
)
def test_perturb_round_trip_pointwise(z1, width, strength, z):
    pot = double_barrier(0.018, 10.0, 10.0)
    region = ClockRegion(z1, z1 + width)
    back = perturb(perturb(pot, region, strength), region, -strength)
    # (h + s) - s can sit 1 ulp off h, so exact equality is too strict
    assert back(z) == pytest.approx(pot(z), abs=1e-17)


@settings(max_examples=100)
@given(
    z1=st.floats(min_value=-8.0, max_value=28.0, allow_nan=False),
    width=st.floats(min_value=1e-3, max_value=20.0, allow_nan=False),
    strength=st.floats(min_value=-0.02, max_value=0.02, allow_nan=False),
    z=st.floats(min_value=-12.0, max_value=45.0, allow_nan=False),
)
def test_perturb_pointwise_definition(z1, width, strength, z):
    pot = double_barrier(0.018, 10.0, 10.0)
    region = ClockRegion(z1, z1 + width)
    shifted = perturb(pot, region, strength)
    inside = region.z1 <= z < region.z2
    expected = pot(z) + (strength if inside else 0.0)
    assert shifted(z) == pytest.approx(expected, abs=1e-17)


def test_free_potential_is_zero_everywhere():
    pot = PiecewiseConstantPotential((0.0,), ())
    assert pot.heights == ()
    for z in (-10.0, 0.0, 10.0):
        assert pot(z) == 0.0
