"""Rotor clock: pointer basis algebra, readings, and the per-level
measurement simulation."""

import math
import sys
import warnings

import numpy as np
import pytest

from tunnelclock import cli, rotor, scattering
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
    perturb,
)
from tunnelclock.rotor import (
    ClockRotor,
    ClockState,
    MeasurementResult,
    PointerReading,
    basis_state,
    evolve,
    measurement_series,
    measurement_simulation,
    read_pointer,
    time_expectation,
)

ROTOR = ClockRotor(21, 1.0)
FREE = PiecewiseConstantPotential((0.0,), ())


def normalized(amplitudes):
    """The clock state along the direction of a nonzero vector."""
    amps = np.asarray(amplitudes, dtype=complex)
    return ClockState(amps / np.linalg.norm(amps))


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
    state = normalized(np.ones(21))
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
    state = normalized(
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
        normalized(rng.normal(size=n) + 1j * rng.normal(size=n))
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
        state = normalized(peaked.amplitudes + noise_level * noise)
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
            FREE, ClockRegion(0.0, 5.0), 0.5, rotor
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
            FREE, ClockRegion(0.0, 5.0), 0.5, ClockRotor(21, 40.0)
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
    # is not finite, as perturb's potential would report. With mass 0.25
    # the wavenumbers of the two lower levels, 2m|V - E| ~ 0.9e308, stay
    # in the float range, so the shifted height is what gets rejected.
    rotor = ClockRotor(3, math.tau / 1.5e300)
    potential = PiecewiseConstantPotential((0.0, 1.0), (sys.float_info.max,))
    units = UnitsConfig(mass=0.25)
    with pytest.warns(CouplingWarning), pytest.raises(
        InvalidParameterError, match="must be finite"
    ):
        measurement_simulation(potential, ClockRegion(0.0, 1.0), 1e300, rotor, units)


def test_level_wavenumber_past_float_range_is_rejected():
    # at mass 1 the m = -1 level's 2m|V - E| overflows: its wavenumber is
    # rejected before any level sees a non-finite height
    rotor = ClockRotor(3, math.tau / 1.5e300)
    potential = PiecewiseConstantPotential((0.0, 1.0), (sys.float_info.max,))
    with pytest.warns(CouplingWarning), pytest.raises(
        InvalidParameterError, match="wavenumber beyond the float range"
    ):
        measurement_simulation(potential, ClockRegion(0.0, 1.0), 1e300, rotor)


def bits(result):
    """Every float of a reading, as exact bits."""
    values = [result.transmitted.t_read, result.transmitted.spread,
              result.transmitted_weight, result.reflected_weight]
    if result.reflected is not None:
        values += [result.reflected.t_read, result.reflected.spread]
    return [float(v).hex() for v in values]


def independent_rows(potential, region, energy, rotor, halvings, units):
    """Reference: one measurement_simulation per row, tau doubled per row;
    None where it raises CouplingTooStrongError."""
    rows = []
    for step in range(halvings + 1):
        row_rotor = ClockRotor(rotor.N, rotor.tau * 2.0**step)
        try:
            rows.append(measurement_simulation(potential, region, energy, row_rotor, units))
        except CouplingTooStrongError:
            rows.append(None)
    return rows


def assert_series_matches(potential, region, energy, rotor, halvings, units):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CouplingWarning)
        series = measurement_series(potential, region, energy, rotor, halvings, units)
        reference = independent_rows(potential, region, energy, rotor, halvings, units)
    assert len(series) == halvings + 1
    for step, ((row_rotor, result), expected) in enumerate(zip(series, reference)):
        assert row_rotor == ClockRotor(rotor.N, rotor.tau * 2.0**step)
        if expected is None:
            assert result is None
        else:
            assert bits(result) == bits(expected)
    return series


STACK = PiecewiseConstantPotential(
    (0.0, 10.0, 12.5, 20.0, 25.0), (0.018, -0.004, 0.0, 0.012)
)
SERIES_CASES = [
    # (potential, region, energy, units, energy margin of the region)
    (double_barrier(0.018, 10.0, 10.0), ClockRegion(0.0, 30.0), 0.01,
     UnitsConfig(), 0.008),
    (STACK, ClockRegion(3.0, 17.5), 0.009, UnitsConfig(mass=2.0, hbar=0.5), 0.009),
    (STACK, ClockRegion(-4.0, 27.0), 0.009, UnitsConfig(), 0.003),
]


@pytest.mark.parametrize("n", [3, 21, 201])
@pytest.mark.parametrize("case", range(len(SERIES_CASES)))
def test_series_rows_equal_independent_readings(n, case):
    potential, region, energy, units, margin = SERIES_CASES[case]
    # the first row's largest shift is a fifth of the margin
    j = (n - 1) // 2
    rotor = ClockRotor(n, j * units.hbar * math.tau / (n * 0.2 * margin))
    series = assert_series_matches(potential, region, energy, rotor, 4, units)
    assert all(result is not None for _, result in series)
    for halvings in range(4):
        assert_series_matches(potential, region, energy, rotor, halvings, units)


def test_series_leading_rows_too_strong():
    # at tau = 150 and 300 the largest shift reaches the 0.008 margin;
    # the rows after them read
    rotor = ClockRotor(21, 150.0)
    series = assert_series_matches(
        double_barrier(0.018, 10.0, 10.0), ClockRegion(0.0, 30.0), 0.01,
        rotor, 3, UnitsConfig(),
    )
    assert [result is None for _, result in series] == [True, True, False, False]


def count_sweeps(monkeypatch):
    calls = []
    sweep = scattering._sweep

    def counting(*args):
        calls.append(None)
        return sweep(*args)

    monkeypatch.setattr(scattering, "_sweep", counting)
    return calls


def test_series_with_shifts_underflowing_to_zero(monkeypatch):
    # hbar*omega ~ 1e-20 * 3e-307 underflows: the levels m < 0 shift by
    # -0.0 and the others by 0.0, two distinct shifts for the whole series;
    # barriers 1e-19 wide keep q*a about 1 at this hbar
    units = UnitsConfig(hbar=1e-20)
    rotor = ClockRotor(21, 1e306)
    assert units.hbar * rotor.omega == 0.0
    potential = double_barrier(0.018, 1e-19, 1e-19)
    region = ClockRegion(0.0, 3e-19)
    reference = independent_rows(potential, region, 0.01, rotor, 1, units)
    sweeps = count_sweeps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = measurement_series(potential, region, 0.01, rotor, 1, units)
    assert len(sweeps) == 2
    assert [bits(result) for _, result in series] == [bits(r) for r in reference]
    transmitted, reflected = solve_per_level(potential, region, 0.01, rotor, units)
    assert len(set(transmitted)) == len(set(reflected)) == 1
    assert series[0][1].transmitted.t_read == 0.0


def test_clock_sim_solves_each_distinct_shift_once(monkeypatch, capsys):
    # row 0 solves its 21 levels; each later row reuses its even levels
    # from the row before and solves only its 10 odd ones: 51, not 84.
    # clock_times adds its two solves for the t_perturbative column.
    sweeps = count_sweeps(monkeypatch)
    argv = ("clock-sim --N 21 --tau 25000 --halvings 3"
            " --E 0.01 --V0 0.018 --a 10 --d 10").split()
    assert cli.main(argv) == 0
    assert len(sweeps) == 2 + 21 + 3 * 10
    rows = [l for l in capsys.readouterr().out.splitlines() if l[0].isdigit()]
    assert len(rows) == 4 and all(row.endswith(",0") for row in rows)


def test_clock_sim_solves_each_distinct_shift_once_as_lanes(monkeypatch, capsys):
    # row 0's 401 shifts and each later row's 200 odd ones go to one lane
    # batch, 1001 shifts, and no level runs the scalar sweep: only
    # clock_times' two solves for the t_perturbative column do
    batches = []
    lanes = rotor._lanes

    def counting(*args):
        batches.append(len(args[5]))
        return lanes(*args)

    monkeypatch.setattr(rotor, "_lanes", counting)
    sweeps = count_sweeps(monkeypatch)
    argv = ("clock-sim --N 401 --tau 4000 --halvings 3"
            " --E 0.01 --V0 0.018 --a 10 --d 10").split()
    assert cli.main(argv) == 0
    assert batches == [401 + 3 * 200]
    assert len(sweeps) == 2
    rows = [l for l in capsys.readouterr().out.splitlines() if l[0].isdigit()]
    assert len(rows) == 4 and all(row.endswith(",0") for row in rows)


def test_coupling_warnings_point_at_the_caller():
    # rows 0 and 1 lie in the warning band (shifts above a tenth of the
    # 0.008 margin), row 2 below it
    potential = double_barrier(0.018, 10.0, 10.0)
    region = ClockRegion(0.0, 30.0)
    rotor = ClockRotor(21, 1000.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = sys._getframe().f_lineno + 1
        measurement_series(potential, region, 0.01, rotor, 2)
        measurement_simulation(potential, region, 0.01, rotor)
    assert [w.category for w in caught] == [CouplingWarning] * 3
    assert [(w.filename, w.lineno) for w in caught] == (
        [(__file__, line)] * 2 + [(__file__, line + 1)]
    )
