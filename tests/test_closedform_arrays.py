"""The array closed forms against a frozen copy of the scalar formulas.

The ``_oracle_*`` functions below are the scalar closed forms in plain
CPython float and complex arithmetic and the math/cmath modules, one
parameter set at a time. The times, alpha, beta and the gammas are frozen
as they stood before the array core replaced them, with each square
written as a product. The transmission probability, the square of
4 k^2 q^2 e^{-2qa} / |alpha + i beta|, and the shifted amplitude,
4i k p q^2 e^{-2qa} e^{-ik(2a+d)} / (-beta + i alpha), are frozen as they
stood when they came to be taken from alpha and beta. The resonance
proximity is |(k^2 - q^2) sin kd - 2kq cos kd| / (k^2 + q^2). The array
core must reproduce them bit for bit, and must flag a row exactly where
they raise, give a non-finite time or trans_prob, or a t_whole of zero.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tunnelclock import cli, closedform
from tunnelclock._arith import _cexp
from tunnelclock.closedform import (
    DoubleBarrierParams,
    NEAR_RESONANCE_CUTOFF,
    grid,
    near_resonance,
    perturbed_amplitude,
    times,
)
from tunnelclock.errors import InvalidParameterError
from tunnelclock.potentials import UnitsConfig

# ---------------------------------------------------------------------------
# Frozen scalar oracle.


def _oracle_wavenumbers(V0, E, m, hbar, coupling=0.0):
    gap = E - coupling
    bar = V0 + coupling - E
    if not (gap > 0 and bar > 0):
        raise InvalidParameterError("coupling leaves the tunneling regime")
    return math.sqrt(2.0 * m * gap) / hbar, math.sqrt(2.0 * m * bar) / hbar


def _oracle_validate(V0, a, d, E):
    if not all(math.isfinite(v) for v in (V0, a, d, E)):
        raise InvalidParameterError("not finite")
    if not (a > 0 and d > 0):
        raise InvalidParameterError("a, d")
    if not (0 < E < V0):
        raise InvalidParameterError("regime")
    return True


def _oracle_hyperbolics(q, a):
    x = math.exp(-4.0 * q * a)
    return 0.5 * (1.0 + x), 0.5 * (1.0 - x), math.exp(-2.0 * q * a)


def _oracle_alpha_beta(k, p, q, a, d):
    ch, sh, nh = _oracle_hyperbolics(q, a)
    sin_pd = math.sin(p * d)
    cos_pd = math.cos(p * d)
    alpha = 2.0 * k * q * (2.0 * p * q * cos_pd * ch + (q * q - p * p) * sin_pd * sh)
    beta = (
        -(k * k + q * q) * (p * p + q * q) * sin_pd * nh
        + 2.0 * p * q * (q * q - k * k) * cos_pd * sh
        + (q * q - p * p) * (q * q - k * k) * sin_pd * ch
    )
    return alpha, beta


def _oracle_gammas(k, q, a, d):
    ch, sh, nh = _oracle_hyperbolics(q, a)
    k2, q2 = k * k, q * q
    sin_kd = math.sin(k * d)
    cos_kd = math.cos(k * d)
    g1 = (
        (-2.0 * k * (q2 + k2) * sin_kd - d * ((q2 + k2) * (q2 + k2)) * cos_kd) * nh
        + 2.0 * q * (q2 - k2) * cos_kd * sh
        - 2.0 * q * k * d * (q2 - k2) * sin_kd * sh
        - 2.0 * k * (q2 - k2) * sin_kd * ch
        + d * ((q2 - k2) * (q2 - k2)) * cos_kd * ch
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
        + 2.0 * a * ((q2 - k2) * (q2 - k2)) * sin_kd * sh
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


def _oracle_times(V0, a, d, E, m, hbar):
    """(t_whole, t_between, t_barriers, t_opaque, t_between_asymptotic);
    raises where the scalar times raised for the four printed times."""
    k, q = _oracle_wavenumbers(V0, E, m, hbar)
    try:
        alpha, beta = _oracle_alpha_beta(k, k, q, a, d)
        g1, g2, g3, g4 = _oracle_gammas(k, q, a, d)
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
    except (ArithmeticError, ValueError) as exc:
        raise InvalidParameterError("float range") from exc
    if not all(map(math.isfinite, (t_whole, t_between, t_barriers, t_opaque))):
        raise InvalidParameterError("float range")
    # a dwell time of zero has underflowed
    if t_whole == 0.0:
        raise InvalidParameterError("float range")
    # Unlike the frozen formulas, a wide-barrier form that raises (sin 2kd
    # of an infinite 2kd, a zero res_den ** 2) is NaN, like at a
    # resonance, rather than failing the whole set.
    t_asym = math.nan
    if not abs(res_den) < 1e-6 * (k2 + q2):
        try:
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
        except (ArithmeticError, ValueError):
            pass
    return t_whole, t_between, t_barriers, t_opaque, t_asym


def _oracle_amplitude(V0, a, d, E, m, hbar, coupling=0.0):
    p, q = _oracle_wavenumbers(V0, E, m, hbar, coupling)
    k = math.sqrt(2.0 * m * E) / hbar
    alpha, beta = _oracle_alpha_beta(k, p, q, a, d)
    nh = math.exp(-2.0 * q * a)
    amplitude = (4j * k * p * q * q * nh * cmath.exp(-1j * (2.0 * a + d) * k)
                 / complex(-beta, alpha))
    if not (math.isfinite(alpha) and math.isfinite(beta) and cmath.isfinite(amplitude)):
        raise InvalidParameterError("float range")
    return amplitude


def _oracle_proximity(V0, d, E, m, hbar):
    k, q = _oracle_wavenumbers(V0, E, m, hbar)
    res_den = (k * k - q * q) * math.sin(k * d) - 2.0 * k * q * math.cos(k * d)
    return abs(res_den) / (k * k + q * q)


def _oracle_row(V0, a, d, E, m, hbar):
    """The five CSV values and the flag of one sweep row; None for a
    flagged NA row."""
    try:
        _oracle_validate(V0, a, d, E)
        t = _oracle_times(V0, a, d, E, m, hbar)
        k, q = _oracle_wavenumbers(V0, E, m, hbar)
        alpha, beta = _oracle_alpha_beta(k, k, q, a, d)
        nh = math.exp(-2.0 * q * a)
        size = 4.0 * k * k * q * q * nh / abs(complex(alpha, beta))
        trans_prob = size * size
        if not math.isfinite(trans_prob):
            return None
        flag = _oracle_proximity(V0, d, E, m, hbar) < NEAR_RESONANCE_CUTOFF
    except (ArithmeticError, ValueError):
        return None
    return (*t[:4], trans_prob), int(flag)


# ---------------------------------------------------------------------------
# Strategies.

EXTREMES = [
    0.0, -0.0, -1.0, 5e-324, 1e-320, 1e-300, 1e-200, 1e-160, 1e-154,
    1e150, 1e154, 1.3407807929942596e154, 1.35e154, 1e200, 1e300,
    1.7976931348623157e308, math.inf, -math.inf, math.nan,
]
UNIT_EXTREMES = [5e-324, 1e-300, 1e-154, 1e-10, 1e10, 1e154, 1e300,
                 1.7976931348623157e308]


def _positive(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def parameter_sets(draw):
    """(V0, a, d, E): in regime, out of regime, or at the float-range edges."""
    kind = draw(st.sampled_from(["regime", "regime", "outside", "edge"]))
    v0 = draw(_positive(1e-3, 0.05))
    a = draw(_positive(0.1, 200.0))
    d = draw(_positive(0.1, 500.0))
    e = v0 * draw(_positive(0.01, 0.99))
    if kind == "outside":
        e = v0 * draw(st.floats(min_value=-0.5, max_value=2.0, allow_nan=False))
        a = draw(st.sampled_from([a, -a, 0.0]))
    elif kind == "edge":
        values = [v0, a, d, e]
        for index in draw(st.sets(st.integers(0, 3), min_size=1)):
            values[index] = draw(st.one_of(st.sampled_from(EXTREMES), st.floats()))
        return tuple(values)
    return v0, a, d, e


units_strategy = st.one_of(
    st.just((1.0, 1.0)),
    st.tuples(st.one_of(_positive(1e-3, 1e3), st.sampled_from(UNIT_EXTREMES)),
              st.one_of(_positive(1e-3, 1e3), st.sampled_from(UNIT_EXTREMES))),
)


def _same(x, y):
    """Equal as the CSV prints them: same value and sign, or both NaN."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


# ---------------------------------------------------------------------------
# Tests.


@settings(max_examples=300, deadline=None)
@given(points=st.lists(parameter_sets(), min_size=1, max_size=12), units=units_strategy)
def test_rows_equal_the_scalar_oracle(points, units):
    mass, hbar = units
    V0, a, d, E = (np.array(column) for column in zip(*points))
    rows = grid(V0, a, d, E, UnitsConfig(mass, hbar))
    values = (rows.t_whole, rows.t_between, rows.t_barriers, rows.t_opaque,
              rows.trans_prob)
    for i, point in enumerate(points):
        expected = _oracle_row(*point, mass, hbar)
        assert rows.ok[i] == (expected is not None), point
        if expected is None:
            assert all(math.isnan(v[i]) for v in values), point
            if _outcome(_oracle_validate, *point) is None:
                assert math.isnan(rows.proximity[i]), point
            continue
        got = [float(v[i]) for v in values]
        assert all(map(_same, got, expected[0])), (point, got, expected[0])
        assert int(rows.proximity[i] < NEAR_RESONANCE_CUTOFF) == expected[1], point


def _outcome(function, *args):
    try:
        return function(*args)
    except (ArithmeticError, ValueError):
        return None


@settings(max_examples=200, deadline=None)
@given(point=parameter_sets(), units=units_strategy,
       coupling_fraction=st.one_of(st.just(0.0), st.floats(-1.5, 1.5)))
# the times underflow to zero, but the CLI refuses the row
@example(point=(1.0, 1e-161, 1e38, 1e-87), units=(1.0, 1.0), coupling_fraction=0.0)
# infinite wavenumbers: the proximity is NaN
@example(point=(0.03125, 1.0, 1.0, 0.015625), units=(1.0, 5e-324), coupling_fraction=0.0)
# q * q overflows: alpha, beta and the amplitude leave the float range
@example(point=(0.018, 10.0, 10.0, 0.01), units=(1.0, 1e-300), coupling_fraction=0.0)
@example(point=(1e308, 10.0, 10.0, 0.01), units=(1.0, 1.0), coupling_fraction=0.0)
# k * k and q * q underflow to zero but 2kq does not: the proximity's
# divisor is zero, where the scalar division raises
@example(point=(2.25e-16, 1.0, 1.0, 1.125e-16), units=(1.0, 1e154), coupling_fraction=0.0)
def test_point_wrappers_equal_the_scalar_oracle(point, units, coupling_fraction):
    mass, hbar = units
    V0, a, d, E = point
    try:
        params = DoubleBarrierParams(V0=V0, a=a, d=d, E=E, units=UnitsConfig(mass, hbar))
    except InvalidParameterError:
        assert _outcome(_oracle_validate, V0, a, d, E) is None
        return
    assert _oracle_validate(V0, a, d, E)
    coupling = coupling_fraction * E
    # times refuses exactly the sets whose CLI row the oracle refuses
    got = _outcome(times, params)
    assert (got is None) == (_oracle_row(V0, a, d, E, mass, hbar) is None)
    if got is not None:
        expected = _oracle_times(V0, a, d, E, mass, hbar)
        got = (got.t_whole, got.t_between, got.t_barriers, got.t_opaque,
               got.t_between_asymptotic)
        assert all(map(_same, got, expected)), (got, expected)
    expected = _outcome(_oracle_amplitude, V0, a, d, E, mass, hbar, coupling)
    got = _outcome(perturbed_amplitude, params, coupling)
    assert (got is None) == (expected is None)
    if got is not None:
        # a number or an error, never NaN or infinity
        assert cmath.isfinite(got)
        assert _same(got.real, expected.real) and _same(got.imag, expected.imag)
    expected = _outcome(_oracle_proximity, V0, d, E, mass, hbar)
    got = _outcome(near_resonance, params)
    assert (got is None) == (expected is None or math.isnan(expected))
    if got is not None:
        assert _same(float(grid(V0, a, d, E, params.units).proximity[0]), expected)
        assert got == (expected < NEAR_RESONANCE_CUTOFF)


def test_every_float_range_extreme_matches_the_oracle():
    # each extreme on one axis at a time, under five choices of units;
    # at the last point only the unprinted wide-barrier form overflows
    # (sin 2kd of an infinite 2kd) and the row still reads
    base = (0.018, 10.0, 10.0, 0.01)
    points = [base[:i] + (x,) + base[i + 1:] for i in range(4) for x in EXTREMES]
    points.append((0.505, 1.0, 1e308, 0.5))
    V0, a, d, E = (np.array(column) for column in zip(*points))
    for mass, hbar in [(1.0, 1.0), (5e-324, 1.0), (1.7976931348623157e308, 1.0),
                       (1.0, 1e-300), (3.0, 0.37)]:
        rows = grid(V0, a, d, E, UnitsConfig(mass, hbar))
        for i, point in enumerate(points):
            expected = _oracle_row(*point, mass, hbar)
            assert rows.ok[i] == (expected is not None), (point, mass, hbar)
            if expected is not None:
                got = (rows.t_whole[i], rows.t_between[i], rows.t_barriers[i],
                       rows.t_opaque[i], rows.trans_prob[i])
                assert all(map(_same, map(float, got), expected[0]))
    point = points[-1]
    got = times(DoubleBarrierParams(*point))
    assert math.isnan(got.t_between_asymptotic)
    assert all(map(_same, (got.t_whole, got.t_between, got.t_barriers, got.t_opaque),
                   _oracle_times(*point, 1.0, 1.0)[:4]))


def test_grid_values_are_nan_wherever_undefined():
    # in the regime; E = V0 and E > V0; E = 0 and E < 0; non-finite
    # inputs; and V0 = 1e300, in the regime but past the float range
    points = [(0.018, 10.0, 10.0, 0.01), (0.018, 10.0, 10.0, 0.018),
              (0.018, 10.0, 10.0, 0.02), (0.018, 10.0, 10.0, 0.0),
              (0.018, 10.0, 10.0, -0.001), (math.inf, 10.0, 10.0, 0.01),
              (0.018, math.nan, 10.0, 0.01), (0.018, 10.0, -math.inf, 0.01),
              (0.018, 10.0, 10.0, math.nan), (1e300, 10.0, 10.0, 0.01)]
    V0, a, d, E = (np.array(column) for column in zip(*points))
    rows = grid(V0, a, d, E)
    assert rows.ok.tolist() == [True] + [False] * 9
    for values in (rows.t_whole, rows.t_between, rows.t_barriers, rows.t_opaque,
                   rows.trans_prob):
        assert np.isnan(values).tolist() == [False] + [True] * 9
    assert np.isnan(rows.proximity).tolist() == [False] + [True] * 8 + [False]


def test_grid_raises_no_warning():
    with np.errstate(all="raise"):
        rows = grid(np.array([0.018, 1e300, -1.0]), 10.0, 10.0, 0.01)
    assert rows.ok.tolist() == [True, False, False]


def test_sweep_rows_equal_point_times_rows(capsys):
    sweep = ["sweep", "--axis", "d", "--start", "1", "--stop", "40",
             "--count", "7", "--E", "0.01", "--V0", "0.018", "--a", "10"]
    assert cli.main(sweep) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if line and line[0].isdigit()]
    for row in rows:
        assert cli.main(["times", "--E", "0.01", "--V0", "0.018", "--a", "10",
                         "--d", row[0]]) == 0
        point_row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert point_row == row[1:]



# ---------------------------------------------------------------------------
# Late broadcasting: a parameter given as one float is evaluated once.

GRID_FIELDS = ("t_whole", "t_between", "t_barriers", "t_opaque", "trans_prob",
               "proximity", "ok")


@settings(max_examples=300, deadline=None)
@given(points=st.lists(parameter_sets(), min_size=1, max_size=12), units=units_strategy,
       fixed=st.sets(st.integers(0, 3), max_size=3))
def test_float_parameters_give_the_broadcast_grid(points, units, fixed):
    # each parameter in fixed is the first point's value, passed once as a
    # float to one call and repeated on every row of the other
    columns = [np.array(column) for column in zip(*points)]
    for index in fixed:
        columns[index] = np.full(len(points), columns[index][0])
    units = UnitsConfig(*units)
    scalars = [float(c[0]) if i in fixed else c for i, c in enumerate(columns)]
    late, full = grid(*scalars, units), grid(*columns, units)
    for name in GRID_FIELDS:
        got, expected = getattr(late, name), getattr(full, name)
        assert got.shape == expected.shape == (len(points),), name
        assert got.tobytes() == expected.tobytes(), (name, got, expected)


def test_one_element_failures_mark_every_row():
    # the barrier factors of V0 = 1e300 overflow whatever the energy
    rows = grid(1e300, 10.0, 10.0, np.array([0.01, 0.005, 0.001]))
    assert rows.ok.tolist() == [False] * 3
    bad = np.zeros(3, bool)
    _cexp((np.array([1e300]), np.array([0.0])), bad)
    assert bad.tolist() == [True] * 3


@pytest.mark.parametrize("axis, values, calls", [
    ("d", np.linspace(1.0, 100.0, 1000), 2002),
    ("a", np.linspace(1.0, 30.0, 1000), 2002),
    ("V0", np.linspace(0.011, 0.05, 1000), 2002),
    ("E", np.linspace(0.001, 0.017, 1000), 4000),
])
def test_fixed_parameters_are_evaluated_once(monkeypatch, axis, values, calls):
    # per-element math calls: e^{-4qa} and e^{-2qa} depend on V0, E and a,
    # sin kd and cos kd on E and d; a sweep of one axis takes two of them
    # once per row and the other two once, an E sweep all four per row
    count = 0
    each = closedform._each

    def counting(function, *arrays):
        nonlocal count
        count += max(array.size for array in arrays)
        return each(function, *arrays)

    monkeypatch.setattr(closedform, "_each", counting)
    rows = grid(**{"V0": 0.018, "a": 10.0, "d": 10.0, "E": 0.01, axis: values})
    assert rows.ok.shape == (1000,)
    assert count == calls
