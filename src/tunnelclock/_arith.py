"""float64 arrays that round like CPython's scalar float and complex
arithmetic, one element per independent scalar computation; an operand
that many elements share may be one element long, and is computed once.

closedform evaluates a sweep of parameter sets this way in real
arithmetic, and scattering's lanes a batch of shifted potentials in real
and complex arithmetic. Each element equals, bit for bit, what plain
CPython 3.11 float and complex arithmetic gives for that element alone,
so results do not depend on how many are evaluated at once:

- numpy does only + - * /, sqrt, comparisons, ``where`` and ``hypot``.
  These round exactly like CPython's float operations and the libm
  ``hypot`` that CPython's complex ``abs`` calls. A square is the
  product x * x, which is exact.
- exp, sin and cos run per element through the math module. numpy's own
  transcendental functions differ from them in the last bit.
- Complex values are (real, imag) pairs combined by CPython 3.11's rules:
  a float operand of a complex operation is taken as (x, 0.0); the
  product (ac - bd, ad + bc); Smith's quotient; exp(z) as e^re (cos, sin)
  of im; abs as hypot. numpy's complex product rounds differently.
- In the complex operations that scattering's lanes use, where the
  scalar arithmetic raises (an exponential out of range, a zero divisor),
  the element is marked in a bad mask instead, every element that the
  failing operand broadcasts to. closedform needs no such mask: its real
  arithmetic raises nowhere, and it marks a set by its results. Callers
  run the arithmetic with numpy's warnings off.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__: list[str] = []


def _each(function, *arrays: np.ndarray) -> np.ndarray:
    """function applied per element to Python floats.

    Iterating a memoryview makes each float as it is needed, so no list
    of the whole array is built on the way.
    """
    return np.fromiter(map(function, *map(memoryview, arrays)), float)


def _cadd(x, y):
    """Complex sum of (real, imag) pairs."""
    return x[0] + y[0], x[1] + y[1]


def _cmul(x, y):
    """Complex product of (real, imag) pairs; a float operand is (x, 0.0)."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _cdiv(x, y, bad: np.ndarray):
    """Smith's quotient x / y; marks bad where y is zero, where it raises."""
    abs_re, abs_im = np.abs(y[0]), np.abs(y[1])
    by_re = abs_re >= abs_im
    by_im = ~by_re & (abs_im >= abs_re)
    bad |= by_re & (abs_re == 0.0)
    ratio = y[1] / y[0]
    den = y[0] + y[1] * ratio
    re_r, im_r = (x[0] + x[1] * ratio) / den, (x[1] - x[0] * ratio) / den
    ratio = y[0] / y[1]
    den = y[0] * ratio + y[1]
    re_i, im_i = (x[0] * ratio + x[1]) / den, (x[1] * ratio - x[0]) / den
    # Neither branch holds where a part of y is NaN.
    return (np.where(by_re, re_r, np.where(by_im, re_i, np.nan)),
            np.where(by_re, im_r, np.where(by_im, im_i, np.nan)))


def _cexp(z, bad: np.ndarray):
    """cmath.exp per element; marks bad where it raises.

    For a finite z with a moderate real part it is e^re (cos im, sin im);
    any other element goes through cmath.exp itself.
    """
    plain = np.isfinite(z[1]) & (np.abs(z[0]) < 700.0)
    re, im = np.where(plain, z[0], 0.0), np.where(plain, z[1], 0.0)
    # exp(+-0) and cos(+-0) are 1 and sin(+-0) is +-0 exactly, so math.exp
    # runs only where re is nonzero, and math.cos and math.sin only where
    # im is.
    growing = np.flatnonzero(re)
    scale = np.ones_like(re)
    scale[growing] = _each(math.exp, re[growing])
    turning = np.flatnonzero(im)
    cos, sin = np.ones_like(im), im.copy()
    cos[turning] = _each(math.cos, im[turning])
    sin[turning] = _each(math.sin, im[turning])
    re, im = scale * cos, scale * sin
    failed = np.zeros(plain.shape, bool)
    for i in np.flatnonzero(~plain):
        try:
            w = cmath.exp(complex(z[0][i], z[1][i]))
            re[i], im[i] = w.real, w.imag
        except (ValueError, OverflowError):
            failed[i] = True
    bad |= failed
    return re, im
