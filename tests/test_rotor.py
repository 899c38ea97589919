"""Rotor clock: pointer basis algebra, readings, and the per-level
measurement simulation."""

import math
import sys
import warnings

import numpy as np
import pytest

from tunnelclock import scattering
from tunnelclock.clocktimes import clock_times
from tunnelclock.errors import (
    CouplingTooStrongError,
    CouplingWarning,
    InvalidParameterError,
    UndefinedReadingError,
)
from tunnelclock.potentials import (
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
    double_barrier,
    free_potential,
    perturb,
)
from tunnelclock.rotor import (
    ClockRotor,
    ClockState,
    MeasurementResult,
    PointerReading,
    basis_state,
    evolve,
    measurement_simulation,
    read_pointer,
    time_expectation,
)

ROTOR = ClockRotor(21, 1.0)


def fidelity(a, b):
    return abs(np.vdot(a.amplitudes, b.amplitudes))


def test_rotor_validation():
    with pytest.raises(InvalidParameterError):
        ClockRotor(4, 1.0)
    with pytest.raises(InvalidParameterError):
        ClockRotor(1, 1.0)
    with pytest.raises(InvalidParameterError):
        ClockRotor(21, 0.0)
    with pytest.raises(InvalidParameterError):
        ClockRotor(21, math.inf)
    # N * tau overflows, so omega would be zero
    with pytest.raises(InvalidParameterError, match="N\\*tau"):
        ClockRotor(5, sys.float_info.max)
    assert ROTOR.j == 10
    assert ROTOR.omega == pytest.approx(math.tau / 21.0, rel=1e-15)
    assert list(ROTOR.levels) == list(range(-10, 11))


def test_state_validation():
    with pytest.raises(InvalidParameterError):
        ClockState(np.ones(21))  # not normalized
    with pytest.raises(InvalidParameterError):
        ClockState(np.ones(4) / 2.0)  # even length
    with pytest.raises(InvalidParameterError):
        ClockState.from_unnormalized(np.zeros(21))
    state = ClockState.from_unnormalized(np.ones(21))
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0  # frozen buffer


def test_pointer_basis_orthonormal():
    vectors = np.column_stack(
        [basis_state(ROTOR, k).amplitudes for k in range(ROTOR.N)]
    )
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(ROTOR.N))) <= 1e-12


def test_basis_index_validation():
    with pytest.raises(InvalidParameterError):
        basis_state(ROTOR, -1)
    with pytest.raises(InvalidParameterError):
        basis_state(ROTOR, 21)


def test_rigid_stepping():
    # one resolution step advances the pointer index by exactly one
    for k in (0, 5, 20):
        for n in (1, 3, 21, 40):
            stepped = evolve(ROTOR, basis_state(ROTOR, k), n * ROTOR.tau)
            target = basis_state(ROTOR, (k + n) % ROTOR.N)
            assert 1.0 - fidelity(stepped, target) <= 1e-12


def test_periodicity():
    state = ClockState.from_unnormalized(
        np.exp(1j * np.linspace(0.0, 2.0, 21)) * np.linspace(1.0, 2.0, 21)
    )
    looped = evolve(ROTOR, state, ROTOR.N * ROTOR.tau)
    assert 1.0 - fidelity(looped, state) <= 1e-12


def test_time_expectation_on_pointer_states():
    for k in range(ROTOR.N):
        expected = k * ROTOR.tau
        assert time_expectation(ROTOR, basis_state(ROTOR, k)) == (
            pytest.approx(expected, abs=1e-11)
        )


def test_time_expectation_half_step_bias():
    # halfway between pointer ticks the stepped-operator average is far
    # from the elapsed time; its value is a fixed property of the N=21
    # rotor, frozen here as a regression guard
    half = evolve(ROTOR, basis_state(ROTOR, 0), 0.5 * ROTOR.tau)
    value = time_expectation(ROTOR, half)
    assert value == pytest.approx(2.4731297804352304, rel=1e-12)
    # whole steps are exact again on both sides of the half step
    one = evolve(ROTOR, basis_state(ROTOR, 0), ROTOR.tau)
    assert time_expectation(ROTOR, one) == pytest.approx(
        ROTOR.tau, abs=1e-11
    )


def matrix_time_expectation(rotor, state):
    """Brute force: the N x N overlap matrix <v_k|state>, phase
    +2*pi*i*m*k/N, and the tau-weighted sum of its squared moduli."""
    ks = np.arange(rotor.N)
    reduced = np.mod(np.outer(ks, rotor.levels), rotor.N)
    overlaps = np.exp(2j * math.pi * reduced / rotor.N) @ state.amplitudes
    weights = np.abs(overlaps / math.sqrt(rotor.N)) ** 2
    return float(np.sum(ks * rotor.tau * weights))


@pytest.mark.parametrize("n", [21, 201])
def test_time_expectation_matches_overlap_matrix(n):
    rotor = ClockRotor(n, 3.0)
    rng = np.random.default_rng(n)
    states = [basis_state(rotor, n // 3), evolve(rotor, basis_state(rotor, 0), 7.5)]
    states += [
        ClockState.from_unnormalized(rng.normal(size=n) + 1j * rng.normal(size=n))
        for _ in range(3)
    ]
    for state in states:
        assert time_expectation(rotor, state) == pytest.approx(
            matrix_time_expectation(rotor, state), abs=1e-12
        )


def test_read_pointer_zero_and_steps():
    assert read_pointer(ROTOR, basis_state(ROTOR, 0)).t_read == (
        pytest.approx(0.0, abs=1e-10)
    )
    shifted = evolve(ROTOR, basis_state(ROTOR, 0), 3.0 * ROTOR.tau)
    assert read_pointer(ROTOR, shifted).t_read == pytest.approx(
        3.0 * ROTOR.tau, rel=1e-10
    )
    # continuous evolution reads back continuously, unlike the stepped
    # expectation above
    partway = evolve(ROTOR, basis_state(ROTOR, 0), 2.25 * ROTOR.tau)
    assert read_pointer(ROTOR, partway).t_read == pytest.approx(
        2.25 * ROTOR.tau, rel=1e-9
    )


def test_read_pointer_uniform_density_undefined():
    one_hot = np.zeros(21, dtype=complex)
    one_hot[0] = 1.0
    with pytest.raises(UndefinedReadingError):
        read_pointer(ROTOR, ClockState(one_hot))


def grid_reading(rotor, state):
    """Brute force: circular mean of the angular density sampled on 16N
    uniform angles (exact for this trigonometric polynomial)."""
    theta = np.linspace(0.0, math.tau, 16 * rotor.N, endpoint=False)
    values = np.exp(1j * np.outer(theta, rotor.levels)) @ state.amplitudes
    density = np.abs(values) ** 2
    moment = np.dot(density, np.exp(1j * theta)) / np.sum(density)
    angle = math.atan2(moment.imag, moment.real) % math.tau
    return angle, math.sqrt(-2.0 * math.log(abs(moment)))


@pytest.mark.parametrize("n", [21, 201])
def test_read_pointer_matches_angular_grid(n):
    rotor = ClockRotor(n, 3.0)
    rng = np.random.default_rng(n)
    for noise_level in (0.03, 0.3, 3.0, 30.0):
        # a peaked state rotated by a random time, plus random noise
        peaked = evolve(rotor, basis_state(rotor, 0), rng.uniform(0, n * 3.0))
        noise = rng.normal(size=n) + 1j * rng.normal(size=n)
        state = ClockState.from_unnormalized(peaked.amplitudes + noise_level * noise)
        reading = read_pointer(rotor, state)
        angle, spread = grid_reading(rotor, state)
        assert reading.t_read * rotor.omega == pytest.approx(angle, abs=1e-12)
        assert reading.spread * rotor.omega == pytest.approx(spread, abs=1e-12)


def test_spread_shrinks_with_dimension_at_fixed_omega():
    # same omega: (N=3, tau=7) and (N=21, tau=1); more levels sharpen the
    # angular peak
    small = ClockRotor(3, 7.0)
    large = ClockRotor(21, 1.0)
    assert small.omega == pytest.approx(large.omega, rel=1e-15)
    spread_small = read_pointer(small, basis_state(small, 0)).spread
    spread_large = read_pointer(large, basis_state(large, 0)).spread
    assert spread_small > spread_large > 0.0


def test_free_time_of_flight():
    rotor = ClockRotor(21, 80.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = measurement_simulation(
            free_potential(), ClockRegion(0.0, 5.0), 0.5, rotor
        )
    # k = 1 at E = 0.5: crossing time equals the region length
    assert result.transmitted.t_read == pytest.approx(5.0, rel=1e-2)
    assert result.transmitted_weight == pytest.approx(1.0, abs=1e-2)
    # shifted levels scatter off the probe strip, so a trace of weight
    # leaks into the reflected channel even for a free potential
    assert result.reflected is not None
    assert 0.0 < result.reflected_weight < 1e-2
    assert isinstance(result, MeasurementResult)
    assert isinstance(result.transmitted, PointerReading)


def test_strong_coupling_warns_but_stays_accurate():
    with pytest.warns(CouplingWarning):
        result = measurement_simulation(
            free_potential(), ClockRegion(0.0, 5.0), 0.5, ClockRotor(21, 40.0)
        )
    assert result.transmitted.t_read == pytest.approx(5.0, rel=1e-2)


def test_barrier_reading_matches_derivative_route():
    pot = double_barrier(0.018, 10.0, 10.0)
    region = ClockRegion(0.0, 30.0)
    reference = clock_times(pot, region, 0.01).transmitted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = measurement_simulation(
            pot, region, 0.01, ClockRotor(21, 20000.0)
        )
    assert result.transmitted.t_read == pytest.approx(reference, rel=1e-2)
    # symmetric barrier: both channels read about the same time
    assert result.reflected.t_read == pytest.approx(
        result.transmitted.t_read, rel=5e-2
    )
    assert result.transmitted_weight + result.reflected_weight == (
        pytest.approx(1.0, abs=1e-11)
    )


def test_coupling_hard_bound():
    # j*omega = 10 * 2*pi/(21*300) ~ 1e-2 exceeds the 8e-3 margin V0 - E
    with pytest.raises(CouplingTooStrongError):
        measurement_simulation(
            double_barrier(0.018, 10.0, 10.0),
            ClockRegion(0.0, 30.0),
            0.01,
            ClockRotor(21, 300.0),
        )


def test_coupling_warning_band():
    with pytest.warns(CouplingWarning):
        measurement_simulation(
            double_barrier(0.018, 10.0, 10.0),
            ClockRegion(0.0, 30.0),
            0.01,
            ClockRotor(21, 1000.0),
        )


def test_reading_convergence_order():
    # halving omega (doubling tau) cuts the reading error by about 4: the
    # symmetric level spectrum cancels the first-order back-action term
    pot = double_barrier(0.018, 10.0, 10.0)
    region = ClockRegion(0.0, 30.0)
    reference = clock_times(pot, region, 0.01).transmitted
    errors = []
    for tau in (50000.0, 100000.0):
        result = measurement_simulation(
            pot, region, 0.01, ClockRotor(21, tau)
        )
        errors.append(abs(result.transmitted.t_read - reference))
    ratio = errors[0] / errors[1]
    assert 2.5 < ratio < 6.0


def solve_per_level(potential, region, energy, rotor, units):
    """Reference: one perturb and one full solve per level, ascending m."""
    transmitted, reflected = [], []
    for m in rotor.levels:
        sol = scattering.solve(
            perturb(potential, region, float(m) * units.hbar * rotor.omega),
            energy,
            units,
        )
        transmitted.append(sol.transmission)
        reflected.append(sol.reflection)
    return np.array(transmitted), np.array(reflected)


@pytest.mark.parametrize(
    "region",
    [ClockRegion(0.0, 25.0), ClockRegion(3.0, 17.5), ClockRegion(-4.0, 12.0)],
)
def test_levels_match_full_solves_bit_for_bit(region):
    potential = PiecewiseConstantPotential(
        (0.0, 10.0, 12.5, 20.0, 25.0), (0.018, -0.004, 0.0, 0.012)
    )
    units = UnitsConfig(mass=2.0, hbar=0.5)
    rotor = ClockRotor(51, 60000.0)
    result = measurement_simulation(potential, region, 0.009, rotor, units)
    transmitted, reflected = solve_per_level(potential, region, 0.009, rotor, units)
    transmitted /= math.sqrt(rotor.N)
    reflected /= math.sqrt(rotor.N)
    t_weight = float(np.sum(np.abs(transmitted) ** 2))
    r_weight = float(np.sum(np.abs(reflected) ** 2))
    assert result.transmitted_weight == t_weight
    assert result.reflected_weight == r_weight
    assert result.transmitted == read_pointer(
        rotor, ClockState(transmitted / math.sqrt(t_weight))
    )
    assert result.reflected == read_pointer(
        rotor, ClockState(reflected / math.sqrt(r_weight))
    )


def test_shift_onto_the_energy_is_too_strong():
    # the top level would lift the 0.25 floor exactly onto E = 0.5: the
    # margin |V - E| of a region below E bounds the coupling too
    rotor = ClockRotor(3, math.tau / 0.75)
    shift = rotor.omega
    floor = 0.5 - shift
    assert floor + shift == 0.5
    potential = PiecewiseConstantPotential((0.0, 1.0), (floor,))
    with pytest.raises(CouplingTooStrongError):
        measurement_simulation(potential, ClockRegion(0.0, 1.0), 0.5, rotor)


def test_barrier_outside_the_region_leaves_the_coupling_free():
    # largest shift 0.009: past the barriers' margin V0 - E = 0.008, but
    # inside E - 0 = 0.01 of the gap, the only interval the clock shifts
    rotor = ClockRotor(21, 10 * math.tau / (21 * 0.009))
    potential = double_barrier(0.018, 10.0, 10.0)
    with pytest.warns(CouplingWarning):
        result = measurement_simulation(
            potential, ClockRegion(10.0, 20.0), 0.01, rotor
        )
    assert math.isfinite(result.transmitted.t_read)
    with pytest.raises(CouplingTooStrongError):
        measurement_simulation(potential, ClockRegion(0.0, 30.0), 0.01, rotor)


def test_level_shifted_past_float_range_is_rejected():
    # the top level adds 5e299 to the largest float: the shifted height
    # is not finite, as perturb's potential would report
    rotor = ClockRotor(3, math.tau / 1.5e300)
    potential = PiecewiseConstantPotential((0.0, 1.0), (sys.float_info.max,))
    with pytest.warns(CouplingWarning), pytest.raises(
        InvalidParameterError, match="must be finite"
    ):
        measurement_simulation(potential, ClockRegion(0.0, 1.0), 1e300, rotor)
