"""CSV text of float64 columns, each cell the bytes of ``'%.17g' % v``.

The CLI prints each closed-form value of a grid with 17 significant
digits. Formatting one Python float at a time costs about a microsecond
per cell; ``rows`` makes the same bytes for a block of rows with a few
dozen numpy passes over all its cells:

- Digits. For 1e-290 <= |x| <= 1e290, D = floor(log10 |x|) and the
  17-digit integer N = round(|x| 10^(16-D)) come from a double-double
  product: Dekker's exact product of |x| with a double near 10^(16-D),
  plus |x| times the remainder of that power. What rounding
  leaves off is then known to within 2^-45, so a cell is left to
  ``'%.17g'`` itself where that lies within _TIE of one half; where N
  is not of 17 digits or is 10^16, since log10 may put D one off; and
  where |x| is outside the range (zero, subnormal, infinite). NaN
  prints NA.
- Layout. %g writes N in fixed notation when -4 <= D < 17 and in
  exponent notation otherwise, with no trailing zeros and no bare
  point. A cell has a byte slot for every character any layout can
  print; each value fills the slots its text needs from small tables
  and leaves the others NUL, and the NUL bytes are dropped once the
  block's cells are joined.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__: list[str] = []

_LOW, _HIGH = -291, 290  # the exponents D of the digit pass
_TIE = 2.0**-40  # a margin over the 2^-45 error of what rounding leaves off


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split x = hi + lo, each part of at most 26 bits."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _error(product: np.ndarray, x: tuple, y: tuple) -> np.ndarray:
    """Dekker: x y - product exactly, for the rounded product of x and y
    given as their split halves."""
    return ((x[0] * y[0] - product) + x[0] * y[1] + x[1] * y[0]) + x[1] * y[1]


def _powers() -> np.ndarray:
    """At column D - _LOW for D = _LOW.._HIGH: a double near 10^(16-D),
    its two halves, and a remainder that brings their sum within 2^-104
    of the power.

    Both come from exact integers, since int / int rounds correctly: the
    double is 10^k / 1 or 1 / 10^k rounded, and the remainder is its
    exact distance n/m - p/q from the power n/m, rounded, with p/q the
    double's own ratio.
    """
    near, rest = [], []
    for k in range(16 - _LOW, 15 - _HIGH, -1):
        n, m = (10**k, 1) if k >= 0 else (1, 10**-k)
        near.append(n / m)
        p, q = near[-1].as_integer_ratio()
        rest.append((n * q - p * m) / (m * q))
    near = np.array(near)
    # Split the mantissas: 134217729 times a power above 1e300 overflows.
    mantissa, exponent = np.frexp(near)
    hi, lo = _split(mantissa)
    return np.array([near, np.ldexp(hi, exponent), np.ldexp(lo, exponent), rest])


_POWERS = _powers()

# A cell is WIDTH little-endian words: the sign and the '0.' and up to
# three zeros that open 1e-4 <= |x| < 0.1; six groups of three digits of
# N, each digit followed by a point slot; 'e', the exponent's sign and
# its two or three digits, and in the last byte the comma that ends the
# cell in a row. N's digit j sits in group (j + 1) // 3, so the first
# digit of the first group is a 0 that no cell prints.
WIDTH = 8
_MINUS = np.uint64(ord("-"))
_COMMA = ord(",") << 56


def _slot(j: int) -> int:
    """The byte of N's digit j in the groups; its point slot follows."""
    return 8 * ((j + 1) // 3) + 2 * ((j + 1) % 3)


def _masks() -> np.ndarray:
    """At column 18 * before + kept: the groups' mask that keeps N's first
    kept digits, and the point after its first before digits where a kept
    digit follows it."""
    masks = np.zeros((18, 18, 48), np.uint8)
    for j in range(17):
        masks[:, j + 1:, _slot(j)] = 0xFF
        masks[j + 1, j + 2:, _slot(j) + 1] = ord(".")
    return masks.reshape(-1, 48).view("<u8").astype(np.uint64).T.copy()


def _by_exponent() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """At D - _LOW: how many of N's digits precede the point; the word of
    the sign slot and '0.' with the zeros after it; and the word of 'e',
    the exponent's sign and its two or three digits, and the comma."""
    D = np.arange(_LOW, _HIGH + 1)
    fixed = (D >= -4) & (D < 17)
    lead = np.zeros(len(D), np.uint64)
    for small in range(-4, 0):
        lead[small - _LOW] = int.from_bytes(b"\0" + b"0.000"[:1 - small], "little")
    e = np.abs(D)
    digits = np.where(e < 100, (48 + e // 10) | (48 + e % 10) << 8,
                      (48 + e // 100) | (48 + e // 10 % 10) << 8 | (48 + e % 10) << 16)
    sign = np.where(D < 0, ord("-"), ord("+"))
    exponent = np.where(fixed, 0, ord("e") | sign << 8 | digits << 16) | _COMMA
    return np.where(fixed, np.maximum(D + 1, 0), 1), lead, exponent.astype(np.uint64)


# The three digits of 0..999 as one group, every point slot set; and how
# many of its digits precede its trailing zeros, or -99 for 0.
_I = np.arange(1000, dtype=np.uint64)
_TRIPLES = (48 + _I // 100) | (48 + _I // 10 % 10) << 16 | (48 + _I % 10) << 32 | 0xFF00FF00FF00
_SIGNIFICANT = np.where(_I == 0, -99, 3 - (_I % 10 == 0) * 1 - (_I % 100 == 0))
_GROUP_END = np.arange(-1, 17, 3)  # N's digits before each group
_MASK = _masks()
_BEFORE, _LEAD, _EXPONENT = _by_exponent()
_NA = np.array([int.from_bytes(b"NA", "little")] + [0] * (WIDTH - 2) + [_COMMA], np.uint64)
# The flag 0 and the newline that end a row.
_END = np.uint64(ord("0") | ord("\n") << 8)


def _product(a: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16-D) as head + tail: head the rounded product of a with a
    double near the power, tail the exact error of that product plus a
    times the power's remainder."""
    power, hi, lo, rest = _POWERS.take(row, axis=1)
    head = a * power
    return head, _error(head, _split(a), (hi, lo)) + a * rest


def _significand(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N and the table row D - _LOW of each element, and where N is not
    certain: out of range, NaN, near a tie, 10^16 or not of 17 digits."""
    size = np.abs(x)
    a = np.fmax(np.fmin(size, 1e290), 1e-290)  # NaN too becomes 1e290
    row = np.floor(np.log10(a)).astype(np.intp) - _LOW
    head, tail = _product(a, row)
    rounded = np.rint(tail)
    tail -= rounded  # what rounding left off, within 2^-45
    N = head.astype(np.int64) + rounded.astype(np.int64)
    # N = 10^16 may be rounded up from below 10^D, where D is one too high.
    uncertain = ((a != size) | (np.abs(tail) > 0.5 - _TIE)
                 | ((N - (10**16 + 1)).view(np.uint64) > 9 * 10**16 - 2))
    return N, row, uncertain


def _groups(N: np.ndarray) -> np.ndarray:
    """N's digits in six groups of three, the first group's first a 0;
    the groups run along the first axis."""
    groups = np.empty((2, 3, *N.shape), np.intp)
    # The two halves of nine digits start where the millions end up.
    rest = groups[:, 0]
    rest[0], rest[1] = np.divmod(N, 10**9)
    for j in (2, 1):
        rest, groups[:, j] = np.divmod(rest, 1000)
    groups[:, 0] = rest
    return groups.reshape(6, *N.shape)


def _kept(groups: np.ndarray) -> np.ndarray:
    """How many of N's digits precede its trailing zeros."""
    ends = _SIGNIFICANT[groups]
    ends += _GROUP_END.reshape(6, *[1] * (groups.ndim - 1))
    return np.maximum.reduce(ends, axis=0)


def _digits(out: np.ndarray, N: np.ndarray, before: np.ndarray) -> None:
    """Write into out the six groups of N's digits, with the point after
    the first before digits and no trailing zeros after it."""
    groups = _groups(N)
    key = 18 * before + np.maximum(_kept(groups), before)
    digits = _TRIPLES[groups]
    del groups  # before the mask is taken: they are the largest arrays
    digits &= _MASK.take(key, axis=1)
    out[...] = digits.transpose(*range(1, digits.ndim), 0)


def _fill(out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Write the cell of each element of the float64 array x into out,
    words of shape x.shape + (WIDTH,), and return where x is NaN. A cell's
    bytes, NUL bytes dropped, read '%.17g' % v, or NA for NaN, and a
    comma."""
    N, row, uncertain = _significand(x)
    out[..., 0] = _LEAD[row]
    np.bitwise_or(out[..., 0], _MINUS, out=out[..., 0], where=np.signbit(x))
    _digits(out[..., 1:7], N, _BEFORE[row])
    out[..., 7] = _EXPONENT[row]
    nan = np.isnan(x)
    out[nan] = _NA
    slots = out.view(np.uint8)
    for i in zip(*(uncertain & ~nan).nonzero()):
        slots[i] = np.frombuffer((b"%.17g" % x[i]).ljust(8 * WIDTH - 1, b"\0") + b",", np.uint8)
    return nan


def rows(lead: list, values: np.ndarray, near: np.ndarray) -> str:
    """CSV data rows, one per row of the float64 array values, joined by
    newlines.

    lead holds the columns before those of values: each the text of the
    cell every row shares, a finite number's, or a float64 array with one
    value per row. The
    cells of values are made in one pass, those of each lead array in one
    more however often it appears. Cells carry 17 significant digits, or
    NA for NaN; the flag column reads 1 where near is set or the row has
    an NA cell.
    """
    # _join returns only the compacted bytes, so the block's words are
    # freed before the text is decoded.
    return _join(lead, values, near).decode()


def _join(lead: list, values: np.ndarray, near: np.ndarray) -> bytearray:
    """The bytes of rows: every cell laid out in its words, then the NUL
    bytes dropped from the whole block at once."""
    pieces = []  # texts of adjacent shared cells go in one piece
    for column in lead:
        if isinstance(column, str) and pieces and isinstance(pieces[-1], str):
            pieces[-1] += column + ","
        else:
            pieces.append(column + "," if isinstance(column, str) else column)
    widths = [-(-len(p) // 8) if isinstance(p, str) else WIDTH for p in pieces]
    starts = [0, *itertools.accumulate(widths)]
    count, width = values.shape
    buf = bytearray(8 * count * (starts[-1] + width * WIDTH + 1))
    out = np.frombuffer(buf, "<u8").reshape(count, -1)
    nan = _fill(out[:, starts[-1]:-1].reshape(count, width, WIDTH), values)
    flag = near | np.logical_or.reduce(nan, axis=-1)
    done = {}
    for piece, start, stop in zip(pieces, starts, starts[1:]):
        if isinstance(piece, str):
            text = piece.encode().ljust(8 * (stop - start), b"\0")
            out[:, start:stop] = np.frombuffer(text, "<u8")
        elif id(piece) in done:
            out[:, start:stop] = out[:, done[id(piece)]]
        else:
            flag |= _fill(out[:, start:stop], piece)
            done[id(piece)] = slice(start, stop)
    out[:, -1] = _END + flag
    out[-1, -1] &= 0xFF  # no newline after the last row
    return buf.translate(None, b"\0")
