"""The array formatter of CSV cells against CPython's '%.17g'.

Every cell the kernel makes must read, NUL bytes dropped, exactly
``'%.17g' % v`` and its comma, or ``NA`` for NaN, whichever of its
routes (the digit pass or the '%.17g' fallback) made it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunnelclock import _cells, closedform


def cells(values) -> list[bytes]:
    """The kernel's cell of each value, NUL bytes dropped."""
    x = np.asarray(values, float)
    out = np.zeros((len(x), _cells.WIDTH), "<u8")
    _cells._fill(out, x)
    return [cell.tobytes().replace(b"\0", b"") for cell in out]


def expected(values) -> list[bytes]:
    return [(b"NA" if math.isnan(v) else b"%.17g" % v) + b"," for v in values]


def fallback_share(values) -> float:
    """The share of the values that the digit pass leaves to '%.17g'."""
    x = np.asarray(values, float)
    return float(np.mean(_cells._significand(x)[2] & ~np.isnan(x)))


def with_neighbours(values) -> list[float]:
    return [w for v in values
            for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_any_double_prints_as_percent_17g(values):
    assert cells(values) == expected(values)


def test_signed_zeros_and_infinities():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -2.2250738585072014e-308]
    assert cells(values) == expected(values)
    assert cells([-0.0]) == [b"-0,"]


def test_every_power_of_ten_and_its_neighbours():
    values = with_neighbours([float(f"1e{k}") for k in range(-308, 309)])
    assert cells(values) == expected(values)
    assert cells(np.negative(values)) == expected(np.negative(values))


def test_power_table_holds_each_power_to_2_to_the_minus_104():
    # in exact arithmetic: each column's double plus its remainder, and
    # the double's two halves
    near, hi, lo, rest = _cells._POWERS
    for column, D in enumerate(range(_cells._LOW, _cells._HIGH + 1)):
        power = Fraction(10) ** (16 - D)
        assert abs(Fraction(near[column]) + Fraction(rest[column]) - power) <= power / 2**104, D
        assert Fraction(hi[column]) + Fraction(lo[column]) == Fraction(near[column]), D


@pytest.mark.parametrize("edge", [1e16, 1e17, 1e-4, 1e-5, 2.0**53, 0.1, 1.0, 10.0])
def test_notation_edges(edge):
    values = with_neighbours([edge])
    assert cells(values) == expected(values)


def test_two_and_three_digit_exponents():
    values = [m * 10.0**e for m in (1.0, 1.5, 9.999999999999999, 1.2345678901234567)
              for e in (-290, -100, -99, -10, -5, 17, 99, 100, 290)]
    assert cells(values) == expected(values)
    assert cells([1.5e-7, 2.5e123]) == [b"1.4999999999999999e-07,", b"2.4999999999999999e+123,"]


def test_random_bit_patterns():
    rng = np.random.default_rng(20240619)
    x = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    assert cells(x) == expected(x.tolist())
    # About 6% of bit patterns lie beyond 1e+-290 or are NaN or subnormal.
    # Inside the range a cell falls back within 2^-40 of a tie, which is
    # exact for half the doubles of the few binades near 1e15.
    inside = (np.abs(x) >= 1e-290) & (np.abs(x) <= 1e290)
    assert 0.05 < fallback_share(x) < 0.07
    assert fallback_share(x[inside]) < 0.002


def test_fixed_decimals_and_ties_of_few_bits():
    # 1 + 2^-17 scales to an exact tie at 17 digits; the fallback takes it.
    values = [1 + 2.0**-17, 0.5, 0.125, 0.1 + 0.2, 123456.789, 2.0**60, 3.0**35, 1 / 3, 2 / 3]
    assert cells(values) == expected(values)
    assert fallback_share([1 + 2.0**-17]) == 1.0


def test_grid_values_fall_back_only_at_powers_of_ten():
    d = np.linspace(1.0, 100.0, 2000)
    g = closedform.grid(0.018, 10.0, d, 0.01)
    values = np.concatenate([d, g.t_whole, g.t_between, g.t_barriers, g.t_opaque, g.trans_prob])
    assert cells(values) == expected(values.tolist())
    # N = 10^16 may be rounded up from below 10^D, so it falls back.
    assert set(values[_cells._significand(values)[2]].tolist()) == {1.0, 100.0}


def test_rows_lay_out_shared_repeated_and_undefined_cells():
    swept = np.array([1.0, 2.5, 1e-5])
    values = np.array([[0.5, math.nan], [-3.0, 1e300], [2.0**-1074, 7.0]])
    text = _cells.rows([swept, "0.01", swept, "10"], values, np.array([False, False, True]))
    assert text == ("1,0.01,1,10,0.5,NA,1\n"
                    "2.5,0.01,2.5,10,-3,1.0000000000000001e+300,0\n"
                    "1.0000000000000001e-05,0.01,1.0000000000000001e-05,10,"
                    "4.9406564584124654e-324,7,1")
