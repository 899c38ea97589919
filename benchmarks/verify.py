"""Correctness checks of CLI outputs from independent routes.

``failure(argv, text)`` returns None for a correct output and a short
reason otherwise. The checks compare against other routes of the program
or against the paper's predictions, never against stored golden output,
because planned numerical changes may move the last digits.

- Double-barrier rows (times, sweep, fig1): t_whole against the dwell
  integral of the generic transfer-matrix solve over (0, 2a+d),
  trans_prob against its |T|^2, and t_between + t_barriers = t_whole.
  NA rows must be exactly the out-of-regime points.
- Generic stacks (times --potential): every row with both channel times
  satisfies the dwell decomposition |t_dwell - (P_T t_T + P_R t_R)| /
  t_dwell <= RESIDUAL_TOLERANCE; check calls print PASS.
- Clock simulations (clock-sim): the reading error against
  t_perturbative shrinks about 4x per coupling halving (quadratic
  convergence) until it reaches the reference's own tolerance. The
  prediction is asymptotic: with the error c2 w^2 + c4 w^4 in the
  coupling w, a fourth-order term still comparable to the second slows
  the first halvings or flips the error's sign. So only the last of at
  least two halvings is judged, when the error kept its sign over both
  and was already below 1% of the time.
"""

from __future__ import annotations

import math

from tunnelclock import potentials, scattering

# Two exact routes agree to about 1e-12 on these geometries; a formula
# error shows at the percent level.
CROSS_ROUTE_TOLERANCE = 1e-8
# t_whole is computed as t_between + t_barriers; 17 printed digits round
# trip, so only rounding of the sum can separate them.
SUM_TOLERANCE = 1e-12
# The acceptance line of the dwell decomposition (the CLI's
# RESIDUAL_TOLERANCE), fixed here so the program cannot move it.
RESIDUAL_TOLERANCE = 1e-6
# The judged halving must cut the reading error by at least this factor:
# quadratic convergence predicts 4 (3.25 to 4.2 over twelve seeds), a
# first-order error would give 2.
MIN_HALVING_RATIO = 2.5
# Relative reading error below which the coupling counts as small.
# Larger errors come from level shifts that reach across a transmission
# resonance narrower than the energy margin, where no rate is predicted.
ASYMPTOTIC_ERROR = 1e-2
# The reference t_perturbative comes from a Richardson-extrapolated
# phase derivative with a 1e-8 relative target; errors below this
# multiple of it have reached the reference's own accuracy.
REFERENCE_TOLERANCE = 1e-6

DB_HEADER = "t_whole,t_between,t_barriers,t_opaque,trans_prob,flag"
STACK_HEADER = "E,z1,z2,t_transmitted,t_reflected,t_dwell,trans_prob,refl_prob,flag"
CLOCK_HEADER = "omega,tau,t_read,spread,t_perturbative,trans_weight,flag"


def _options(argv) -> dict:
    """Flag values of a '<command> --flag value ...' argv."""
    return dict(zip(argv[1::2], argv[2::2]))


def _value(text: str) -> float | None:
    return None if text == "NA" else float(text)


def _table(text: str) -> tuple[str, list[list[str]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return "", []
    return lines[0], [line.split(",") for line in lines[1:]]


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _double_barrier_rows(header: str, rows: list[list[str]], expected_rows: int) -> str | None:
    if not header.endswith(DB_HEADER):
        return "check:header"
    if len(rows) != expected_rows:
        return "check:row-count"
    columns = header.split(",")
    for row in rows:
        if len(row) != len(columns):
            return "check:row-shape"
        rec = dict(zip(columns, row))
        e, v0, a, d = (float(rec[name]) for name in ("E", "V0", "a", "d"))
        in_regime = 0.0 < e < v0
        values = [_value(rec[name]) for name in DB_HEADER.split(",")[:-1]]
        if all(v is None for v in values):
            if in_regime or rec["flag"] != "1":
                return "check:na-row-in-regime"
            continue
        if not in_regime or any(v is None for v in values):
            return "check:row-out-of-regime"
        t_whole, t_between, t_barriers, _, trans_prob = values
        if _relative(t_between + t_barriers, t_whole) > SUM_TOLERANCE:
            return "check:sum-identity"
        solution = scattering.solve(potentials.double_barrier(v0, a, d), e)
        dwell = scattering.dwell_time(solution, potentials.ClockRegion(0.0, 2.0 * a + d))
        if _relative(t_whole, dwell) > CROSS_ROUTE_TOLERANCE:
            return "check:t_whole-vs-dwell"
        if _relative(trans_prob, abs(solution.transmission) ** 2) > CROSS_ROUTE_TOLERANCE:
            return "check:trans_prob-vs-solve"
    return None


def _stack_row(argv, header: str, rows: list[list[str]]) -> str | None:
    if header != STACK_HEADER or len(rows) != 1 or len(rows[0]) != 9:
        return "check:shape"
    opts = _options(argv)
    e, z1, z2, t_t, t_r, dwell, p_t, p_r = (_value(v) for v in rows[0][:8])
    if (e, z1, z2) != (float(opts["--E"]), float(opts["--z1"]), float(opts["--z2"])):
        return "check:echo"
    if t_t is not None and t_r is not None:
        if dwell is None or p_t is None or p_r is None:
            return "check:missing-dwell"
        residual = abs(dwell - (p_t * t_t + p_r * t_r)) / dwell
        if not residual <= RESIDUAL_TOLERANCE:
            return "check:dwell-decomposition"
    return None


def _clock_rows(argv, header: str, rows: list[list[str]]) -> str | None:
    opts = _options(argv)
    if header != CLOCK_HEADER or len(rows) != int(opts["--halvings"]) + 1:
        return "check:shape"
    reference = _value(rows[0][4])
    if reference is None or not math.isfinite(reference):
        return "check:reference"
    errors = []
    for row in rows:
        if row[-1] == "1":  # coupling too strong for this row: no reading
            return None
        t_read, weight = _value(row[2]), _value(row[5])
        if t_read is None or weight is None or not 0.0 < weight <= 1.0 + 1e-12:
            return "check:reading"
        errors.append(t_read - reference)
    if len(errors) < 3:
        return None
    before, previous, last = errors[-3:]
    if (before * previous > 0.0 and previous * last > 0.0
            and abs(previous) < ASYMPTOTIC_ERROR * abs(reference)
            and abs(last) > REFERENCE_TOLERANCE * abs(reference)
            and abs(last) * MIN_HALVING_RATIO > abs(previous)):
        return "check:convergence"
    return None


def failure(argv, text: str) -> str | None:
    """Why the output of a call that exited 0 is wrong, or None."""
    header, rows = _table(text)
    command = argv[0]
    opts = _options(argv)
    if command == "check":
        return None if "PASS" in text.splitlines() else "check:no-PASS"
    if command == "clock-sim":
        return _clock_rows(argv, header, rows)
    if command == "times" and "--potential" in opts:
        return _stack_row(argv, header, rows)
    expected = 1 if command == "times" else int(opts["--count"])
    return _double_barrier_rows(header, rows, expected)
