"""Clock times from overlap integrals: channel times and the dwell
decomposition."""

import cmath
import math
import random

import pytest

from tunnelclock import scattering
from tunnelclock.clocktimes import PROB_FLOOR, clock_times
from tunnelclock.closedform import DoubleBarrierParams, times
from tunnelclock.errors import (
    CouplingTooStrongError,
    InvalidParameterError,
    TunnelClockError,
    UndefinedReadingError,
)
from tunnelclock.potentials import (
    NATURAL_UNITS,
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
    double_barrier,
    perturb,
)

BARRIER = double_barrier(0.018, 10.0, 10.0)
WHOLE = ClockRegion(0.0, 30.0)
ASYM = PiecewiseConstantPotential(
    (0.0, 4.0, 7.0, 13.0, 18.0), (0.02, 0.0, 0.012, 0.025)
)
FREE = PiecewiseConstantPotential((0.0,), ())


def test_free_particle_crossing_time():
    # k = 1 at E = 0.5, so the crossing time equals the region length
    result = clock_times(FREE, ClockRegion(0.0, 5.0), 0.5)
    assert result.transmitted == pytest.approx(5.0, rel=1e-10)
    assert result.dwell == pytest.approx(5.0, rel=1e-12)
    assert result.reflected is None
    assert result.transmission_prob == pytest.approx(1.0, abs=1e-14)
    assert result.reflection_prob == pytest.approx(0.0, abs=1e-14)


def test_whole_region_matches_closed_form():
    result = clock_times(BARRIER, WHOLE, 0.01)
    reference = times(DoubleBarrierParams(V0=0.018, a=10.0, d=10.0, E=0.01))
    assert result.transmitted == pytest.approx(reference.t_whole, rel=1e-9)
    assert result.dwell == pytest.approx(reference.t_whole, rel=1e-9)


def test_gap_region_matches_closed_form():
    result = clock_times(BARRIER, ClockRegion(10.0, 20.0), 0.01)
    reference = times(DoubleBarrierParams(V0=0.018, a=10.0, d=10.0, E=0.01))
    assert result.transmitted == pytest.approx(reference.t_between, rel=1e-9)


def test_symmetric_channels_agree():
    result = clock_times(BARRIER, WHOLE, 0.01)
    assert result.reflected == pytest.approx(result.transmitted, rel=1e-9)


def test_asymmetric_decomposition_residual():
    residual = clock_times(ASYM, ClockRegion(2.0, 15.0), 0.009).decomposition_residual
    assert residual <= 1e-9


def test_asymmetric_channels_differ():
    result = clock_times(ASYM, ClockRegion(2.0, 15.0), 0.009)
    assert result.transmitted is not None and result.reflected is not None
    assert abs(result.transmitted - result.reflected) > 1e-3 * abs(
        result.transmitted
    )


def test_region_additivity():
    left = clock_times(ASYM, ClockRegion(2.0, 9.0), 0.009)
    right = clock_times(ASYM, ClockRegion(9.0, 15.0), 0.009)
    union = clock_times(ASYM, ClockRegion(2.0, 15.0), 0.009)
    assert left.transmitted + right.transmitted == pytest.approx(
        union.transmitted, rel=1e-8
    )
    assert left.reflected + right.reflected == pytest.approx(
        union.reflected, rel=1e-8
    )
    assert left.dwell + right.dwell == pytest.approx(union.dwell, rel=1e-12)


def test_region_beyond_support():
    # past the barrier the density is the pure transmitted wave, so the
    # dwell time is |T|^2 L / v; the channel times still split it through
    # interference with reflections off the probe region itself (the
    # reflected channel picks up a nonzero reading there), and the
    # weighted decomposition closes regardless
    region = ClockRegion(35.0, 40.0)
    result = clock_times(BARRIER, region, 0.01)
    k = math.sqrt(2.0 * 0.01)
    assert result.dwell == pytest.approx(
        result.transmission_prob * 5.0 / k, rel=1e-12
    )
    assert result.reflected is not None and result.reflected > 0
    assert result.decomposition_residual <= 1e-9


def test_opaque_transmitted_channel_undefined():
    # |T|^2 ~ 5e-77 sits far below the probability floor
    pot = PiecewiseConstantPotential((0.0, 700.0), (0.018,))
    result = clock_times(pot, ClockRegion(0.0, 700.0), 0.01)
    assert result.transmission_prob < PROB_FLOOR
    assert result.transmitted is None
    # the reflected clock saturates to the opaque limit 2k/(q(k^2+q^2))
    k, q = math.sqrt(0.02), math.sqrt(0.016)
    assert result.reflected == pytest.approx(
        2.0 * k / (q * (k * k + q * q)), rel=1e-8
    )


@pytest.mark.parametrize("z1, z2", [(0.0, 1.7976931348623157e308),
                                    (-1.7976931348623157e308, 30.0)])
def test_times_beyond_float_range_rejected(z1, z2):
    # the free stretch's dwell and transmitted times are infinite
    with pytest.raises(InvalidParameterError, match="float range"):
        clock_times(BARRIER, ClockRegion(z1, z2), 0.01)


def test_error_hierarchy():
    assert issubclass(CouplingTooStrongError, InvalidParameterError)
    assert issubclass(InvalidParameterError, TunnelClockError)
    assert issubclass(UndefinedReadingError, TunnelClockError)
    with pytest.raises(InvalidParameterError,
                       match="^energy 0.018 equals a region height; local wavenumber vanishes$"):
        clock_times(BARRIER, WHOLE, 0.018)


def test_a_negative_dwell_time_fails_the_residual_check():
    # 2.8e-16 below the top of a barrier 0.5 wide the sweep's small-kappa
    # coefficients cancel: the dwell time comes out -10.54 where a 50-digit
    # transfer matrix gives 2.637. Taken against |t_dwell| the residual
    # is 3.49, not -3.49, so the row is flagged.
    thin = PiecewiseConstantPotential((1.1, 1.6), (0.018,))
    result = clock_times(thin, ClockRegion(1.1, 1.6), 0.017999999999999995)
    assert result.dwell < 0
    assert result.decomposition_residual > 1e-6


def test_dwell_positive_whole_line_identity():
    # dwell over a region containing the full support plus free stretches
    # equals whole-barrier dwell plus the free-propagation pieces
    inner = clock_times(BARRIER, WHOLE, 0.01)
    outer = clock_times(BARRIER, ClockRegion(-10.0, 40.0), 0.01)
    k = math.sqrt(2.0 * 0.01)
    left_piece = clock_times(BARRIER, ClockRegion(-10.0, 0.0), 0.01)
    right_piece = clock_times(BARRIER, ClockRegion(30.0, 40.0), 0.01)
    assert outer.dwell == pytest.approx(
        inner.dwell + left_piece.dwell + right_piece.dwell, rel=1e-12
    )
    assert left_piece.dwell > 10.0 / k  # incident plus reflected density


def finite_difference_times(potential, region, energy, units=NATURAL_UNITS, step=1e-7):
    """Oracle: -hbar times central phase differences of perturbed solves,
    fixed step, nearest branch (the phase of the amplitude ratio)."""
    plus = scattering.solve(perturb(potential, region, step), energy, units)
    minus = scattering.solve(perturb(potential, region, -step), energy, units)
    scale = -units.hbar / (2.0 * step)
    return (
        scale * cmath.phase(plus.transmission / minus.transmission),
        scale * cmath.phase(plus.reflection / minus.reflection),
    )


@pytest.mark.parametrize(
    "potential, region, energy, units",
    [
        (ASYM, ClockRegion(2.0, 15.0), 0.009, NATURAL_UNITS),
        (ASYM, ClockRegion(-3.0, 9.5), 0.016, NATURAL_UNITS),
        (BARRIER, WHOLE, 0.01, NATURAL_UNITS),
        (BARRIER, ClockRegion(10.0, 20.0), 0.01, NATURAL_UNITS),
        (ASYM, ClockRegion(2.0, 15.0), 0.009, UnitsConfig(mass=2.0, hbar=0.5)),
    ],
)
def test_matches_finite_difference_oracle(potential, region, energy, units):
    result = clock_times(potential, region, energy, units)
    t_fd, r_fd = finite_difference_times(potential, region, energy, units)
    assert result.transmitted == pytest.approx(t_fd, rel=1e-6)
    assert result.reflected == pytest.approx(r_fd, rel=1e-6)


def test_one_solve_and_two_sweeps_per_call(monkeypatch):
    # chi comes from a second backward sweep over psi's wavenumbers
    # reversed and its breakpoints negated and reversed, not a second solve
    solves, sweeps = [], []
    solve, sweep = scattering.solve, scattering._sweep

    def counting_solve(*args, **kwargs):
        solves.append(args[0])
        return solve(*args, **kwargs)

    def counting_sweep(kappas, bp):
        sweeps.append((tuple(kappas), bp))
        return sweep(kappas, bp)

    monkeypatch.setattr(scattering, "solve", counting_solve)
    monkeypatch.setattr(scattering, "_sweep", counting_sweep)
    clock_times(ASYM, ClockRegion(2.0, 15.0), 0.009)
    assert solves == [ASYM]
    kappas = tuple(scattering._kappas(0.009, ASYM.heights, NATURAL_UNITS))
    mirror_bp = tuple(-z for z in reversed(ASYM.breakpoints))
    assert sweeps == [(kappas, ASYM.breakpoints), (kappas[::-1], mirror_bp)]


def test_waves_built_only_over_the_clock_region(monkeypatch):
    # 300 regions, a clock region of 3: each of the 3 is built once for
    # |psi|^2, psi^2 and psi*chi together, and once mirrored
    potential, _, energy = random_stack(2, 300, 300)
    bp = potential.breakpoints
    built = []
    original = scattering.ScatteringSolution.wave

    def counting(self, r):
        built.append(r)
        return original(self, r)

    monkeypatch.setattr(scattering.ScatteringSolution, "wave", counting)
    result = clock_times(potential, ClockRegion(bp[150], bp[153]), energy)
    assert len(bp) == 301 and result.dwell > 0
    assert len(built) == 6


# Dwell time of BARRIER over WHOLE at the barrier top, from a 50-digit
# transfer matrix.
BAND_EDGE_DWELL = 95.4266608852


@pytest.mark.parametrize("offset", [-1e-6, 1e-6])
def test_near_band_edge_channels_equal_dwell(offset):
    # symmetric potential, whole region: both channel times are the dwell time
    result = clock_times(BARRIER, WHOLE, 0.018 * (1.0 + offset))
    assert result.transmitted == pytest.approx(result.dwell, rel=1e-8)
    assert result.reflected == pytest.approx(result.dwell, rel=1e-8)


@pytest.mark.parametrize("offset", [-1e-12, 1e-12])
def test_at_band_edge_times_stay_finite(offset):
    # The remaining error is the small-kappa rounding of the solve itself.
    result = clock_times(BARRIER, WHOLE, 0.018 * (1.0 + offset))
    assert result.transmitted == pytest.approx(BAND_EDGE_DWELL, rel=1e-3)
    assert result.reflected == pytest.approx(BAND_EDGE_DWELL, rel=1e-3)


def test_very_narrow_region():
    region = ClockRegion(12.0, 12.0 + 1e-9)
    result = clock_times(BARRIER, region, 0.01)
    assert 0.0 < result.dwell < 1e-7
    assert result.decomposition_residual <= 1e-9


def test_barrier_beyond_float_range():
    # q * width = 1000 in one barrier; the dwell time is the opaque limit
    # 2mk / (hbar q (k^2 + q^2)) = 1 at k = q = 1
    pot = PiecewiseConstantPotential((0.0, 1000.0), (1.0,))
    result = clock_times(pot, ClockRegion(0.0, 1000.0), 0.5)
    assert result.dwell == pytest.approx(1.0, rel=1e-12)
    assert result.transmitted is None
    assert result.reflected == pytest.approx(1.0, rel=1e-12)
    assert result.decomposition_residual <= 1e-12


@pytest.mark.parametrize("a", [400.0, 1000.0, 5000.0])
def test_opaque_double_barrier_dwell_matches_closed_form(a):
    # 2qa up to 1e4
    psi = scattering.solve(double_barrier(1.0, a, 3.0), 0.5)
    dwell = scattering.dwell_time(psi, ClockRegion(0.0, 2.0 * a + 3.0))
    reference = times(DoubleBarrierParams(V0=1.0, a=a, d=3.0, E=0.5))
    assert dwell == pytest.approx(reference.t_whole, rel=1e-8)


def random_stack(seed, min_regions, max_regions):
    """Barriers, free gaps and wells with widths in [0.5, 8], a tunnelling
    energy and a clock region that may stick out past the support."""
    rng = random.Random(seed)
    heights = []
    for _ in range(rng.randint(min_regions, max_regions)):
        u = rng.random()
        if u < 0.6:
            heights.append(rng.uniform(0.004, 0.03))
        elif u < 0.8:
            heights.append(0.0)
        else:
            heights.append(-rng.uniform(0.002, 0.02))
    breakpoints = [0.0]
    for _ in heights:
        breakpoints.append(breakpoints[-1] + rng.uniform(0.5, 8.0))
    potential = PiecewiseConstantPotential(tuple(breakpoints), tuple(heights))
    energy = rng.uniform(0.25, 0.85) * max(heights)
    z1 = rng.uniform(-4.0, breakpoints[-1] - 0.5)
    z2 = rng.uniform(z1 + 0.5, breakpoints[-1] + 4.0)
    return potential, ClockRegion(z1, z2), energy


def test_deep_stack_decomposition():
    # 234 regions; a phase-derivative route fails to converge here
    potential, region, energy = random_stack(1, 200, 400)
    assert len(potential.heights) >= 200
    assert clock_times(potential, region, energy).decomposition_residual <= 1e-9


def test_weakly_transmitting_stack_decomposition():
    # 59 regions, P_T ~ 8.5e-10: the transmitted channel still counts
    potential, region, energy = random_stack(5, 20, 60)
    result = clock_times(potential, region, energy)
    assert 20 <= len(potential.heights) <= 60
    assert 1e-10 < result.transmission_prob < 1e-3
    assert result.decomposition_residual <= 1e-9


def test_residual_keeps_channels_below_floor():
    # P_T ~ 1e-46 but P_T t_T is a tenth of the dwell time (see below);
    # the residual counts it through its weighted term
    potential, region, energy = random_stack(4, 200, 400)
    result = clock_times(potential, region, energy)
    assert result.transmission_prob < PROB_FLOOR and result.transmitted is None
    assert result.decomposition_residual <= 1e-9


def test_full_identity_in_deep_shadow():
    # The clock region sits near the exit of a 260-region stack, where
    # |psi| is comparable to |T|: P_T t_T is a tenth of the dwell time
    # although P_T ~ 1e-46. With both channels kept the identity is exact.
    potential, region, energy = random_stack(4, 200, 400)
    psi = scattering.solve(potential, energy)
    _, psi2, psichi = scattering.overlap_integrals(psi, region)
    weighted = (
        psi2 * psi.reflection.conjugate() + psichi * psi.transmission.conjugate()
    ).real / psi.wavenumber
    dwell = scattering.dwell_time(psi, region)
    assert weighted == pytest.approx(dwell, rel=1e-12)


@pytest.mark.parametrize(
    "a", [60.0, 100.0, 400.0, 1000.0, 1500.0, 1950.0, 2000.0, 2500.0, 2900.0, 3000.0])
def test_transmitted_time_is_undefined_or_right(a):
    # T is a normal float up to a = 2900, but psi's growing coefficient in
    # the exit barrier leaves the normal range first (2.5e-312 at
    # a = 1900, 0 at a = 2000): t_T taken wherever T != 0 is off by 1.5e-5
    # at a = 1950 and by 100% from a = 2000
    result = clock_times(double_barrier(0.018, a, 10.0), ClockRegion(0.0, 2.0 * a + 10.0), 0.01)
    reference = times(DoubleBarrierParams(V0=0.018, a=a, d=10.0, E=0.01))
    assert result.transmitted is None or result.transmitted == pytest.approx(
        reference.t_whole, rel=1e-10)
