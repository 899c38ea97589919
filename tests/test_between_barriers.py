"""The paper's between-barrier clock through every route.

A clock that runs only in the gap (a, a+d) of the symmetric double barrier
reads a dwell time that grows with the spacing d. The closed form
t_between, the generic clock times t_T and t_R and the dwell time over the
gap, and the rotor clock over the gap must all give it, at points near a
transmission resonance too; and the closed-form t_barriers must be the sum
of the two barriers' own clock times.
"""

import itertools
import warnings

import numpy as np

from tunnelclock.closedform import grid
from tunnelclock.clocktimes import clock_times
from tunnelclock.potentials import ClockRegion, double_barrier
from tunnelclock.rotor import ClockRotor, measurement_series

V0 = 0.018
POINTS = list(itertools.product((0.002, 0.005, 0.01, 0.015), (2.0, 5.0, 10.0, 30.0),
                                (1.0, 5.0, 10.0, 37.0, 100.0)))


def _closed_forms():
    E, a, d = (np.array(column) for column in zip(*POINTS))
    rows = grid(V0, a, d, E)
    assert rows.ok.all()
    return rows


def test_gap_clock_times_equal_closed_form_t_between():
    # worst relative difference 1.2e-10 (t_R and t_dwell), 1.1e-10 (t_T)
    rows = _closed_forms()
    for (E, a, d), expected in zip(POINTS, rows.t_between.tolist()):
        gap = clock_times(double_barrier(V0, a, d), ClockRegion(a, a + d), E)
        for value in (gap.transmitted, gap.reflected, gap.dwell):
            assert abs(value - expected) <= 1e-9 * expected, (E, a, d, value, expected)


def test_closed_form_t_barriers_is_the_two_barrier_clock_times():
    # worst relative difference 1.4e-14
    rows = _closed_forms()
    for (E, a, d), expected in zip(POINTS, rows.t_barriers.tolist()):
        potential = double_barrier(V0, a, d)
        total = sum(clock_times(potential, region, E).transmitted
                    for region in (ClockRegion(0.0, a), ClockRegion(a + d, 2.0 * a + d)))
        assert abs(total - expected) <= 1e-12 * expected, (E, a, d, total, expected)


def test_gap_rotor_reading_converges_to_t_between():
    # the error falls about 4x per halving, to 7.1e-7, 1.5e-6 and 4.2e-5
    a, E = 10.0, 0.01
    for d in (5.0, 20.0, 60.0):
        expected = float(grid(V0, a, d, E).t_between[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # couplings are safely weak here
            series = measurement_series(double_barrier(V0, a, d), ClockRegion(a, a + d),
                                        E, ClockRotor(21, 25000.0), 4)
        errors = [abs(result.transmitted.t_read - expected) for _, result in series]
        assert all(errors[i] >= 1.8 * errors[i + 1] for i in range(4)), (d, errors)
        assert errors[-1] <= 1e-4 * expected, (d, errors)
