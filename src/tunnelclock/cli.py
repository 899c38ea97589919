"""Command-line front end: point evaluations, sweeps, presets, clock runs.

All data output is CSV: comment lines prefixed '#' carry the parameter
set and the units convention, then one fixed header line, then rows.
Floats are printed with 17 significant digits so values round-trip
exactly; reruns with identical flags produce byte-identical output.
Undefined entries are the literal token NA and set the row's flag column,
as do clock times that fail the dwell decomposition check, and closed-form
times near a resonance or below zero.

Exit codes: 0 success (flagged rows included), 2 argument/validation
problems, 1 numerical failure, out of memory or a failed write.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import re
import sys
import warnings
from typing import TYPE_CHECKING

from .checks import decomposition_suite
from .clocktimes import clock_times
from .errors import CouplingWarning, InvalidParameterError, TunnelClockError
from .potentials import (
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
    double_barrier,
)

# closedform, rotor and numpy are imported by the commands that use them,
# so times --potential and check run without numpy.
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    import numpy as np

__all__ = ["main", "build_parser", "load_potential_file"]

# Largest dwell decomposition residual that check passes; times
# --potential and clock-sim flag a row whose clock times exceed it, and
# clock-sim a row whose shift_rounding exceeds it.
RESIDUAL_TOLERANCE = 1e-6

POTENTIAL_FILE_HELP = """\
potential file format:
  Plain text; '#' starts a comment, blank lines are ignored. Alternating
  lines of 'breakpoint <z>' and 'height <V>', starting and ending with a
  breakpoint (n+1 breakpoints enclose n regions). Breakpoints must be
  strictly increasing. The potential is zero outside the first and last
  breakpoints. Example of two unequal barriers:

      breakpoint 0.0
      height 0.018
      breakpoint 10.0
      height 0.0
      breakpoint 20.0
      height 0.018
      breakpoint 25.0
"""


def _fmt(value: float | None) -> str:
    if value is None or math.isnan(value):
        return "NA"
    return f"{value:.17g}"


def _rows(columns: list, flags: list[bool]) -> list[str]:
    """CSV data rows, one per flag.

    A list column holds one float per row; any other column is the one
    float or None that every row shares. Cells are _fmt's; the flag
    column reads 1 where the row's flag is set or the row has an NA cell.
    """
    cells = (map(_fmt, c) if isinstance(c, list) else [_fmt(c)] * len(flags) for c in columns)
    return [",".join(row) + (",1" if flag or "NA" in row else ",0")
            for row, flag in zip(zip(*cells), flags)]


def _head(command: str, units: UnitsConfig, params: str, header: str) -> list[str]:
    """The comment lines and the header line that open a command's CSV."""
    return [
        f"# tunnelclock {command}",
        f"# units: mass={_fmt(units.mass)} hbar={_fmt(units.hbar)}"
        " (defaults are natural units, where distances and times are"
        " expressed in units of 1/mass)",
        f"# {params}",
        header,
    ]


def _emit(blocks: Iterable[list[str]], out_path: str | None) -> None:
    """Write each block of lines as soon as it is made, to stdout or to
    out_path, and flush it. Commands compute what can fail before they
    return, so a failed call writes nothing; a sweep's row blocks, made
    while writing, cannot fail. A failed write raises OSError and may
    leave part of the output written."""
    if out_path is None:
        fh = contextlib.nullcontext(sys.stdout)
    else:
        try:
            fh = open(out_path, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise InvalidParameterError(f"cannot write output: {exc}") from exc
    with fh as stream:
        for block in blocks:
            stream.write("\n".join(block) + "\n")
        stream.flush()


def _discard_stdout() -> None:
    """Point stdout at the null device, so that flushing what a failed
    write left buffered at interpreter exit cannot fail again (the recipe
    of the SIGPIPE note in the signal module's docs)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    with contextlib.suppress(OSError, ValueError):  # a stream without a descriptor
        os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def load_potential_file(path: str) -> PiecewiseConstantPotential:
    """Parse the alternating breakpoint/height text format (UTF-8, with or
    without a byte-order mark)."""
    breakpoints: list[float] = []
    heights: list[float] = []
    expect = "breakpoint"
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read potential file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(raw, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2 or parts[0] not in ("breakpoint", "height"):
            raise InvalidParameterError(
                f"{path}:{lineno}: expected 'breakpoint <z>' or 'height <V>', "
                f"got {stripped!r}"
            )
        keyword, text = parts
        if keyword != expect:
            raise InvalidParameterError(
                f"{path}:{lineno}: expected a {expect} line, got a {keyword} line"
            )
        try:
            value = float(text)
        except ValueError as exc:
            raise InvalidParameterError(
                f"{path}:{lineno}: not a number: {text!r}"
            ) from exc
        if not math.isfinite(value):
            raise InvalidParameterError(
                f"{path}:{lineno}: breakpoints and heights must be finite"
            )
        if keyword == "breakpoint":
            if breakpoints and value <= breakpoints[-1]:
                raise InvalidParameterError(
                    f"{path}:{lineno}: breakpoints must be strictly increasing"
                )
            breakpoints.append(value)
            expect = "height"
        else:
            heights.append(value)
            expect = "breakpoint"
    if expect == "breakpoint":
        need = "end with a breakpoint line" if breakpoints else "hold a breakpoint line"
        raise InvalidParameterError(f"{path}: file must {need}")
    return PiecewiseConstantPotential(tuple(breakpoints), tuple(heights))


def _require_double_barrier(args: argparse.Namespace, names: tuple[str, ...]) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise InvalidParameterError(
                f"double-barrier mode needs --{name} (or use --potential)"
            )


DB_COLUMNS = "t_whole,t_between,t_barriers,t_opaque,trans_prob,flag"


def _double_barrier_rows(
    lead: list[float | np.ndarray], units: UnitsConfig
) -> tuple[list[str], np.ndarray]:
    """CSV rows of the closed forms over a grid, as one text, and where
    they are defined.

    lead holds the columns printed before the closed forms; its last four
    are E, V0, a and d. Each is a float, the same on every row, or the one
    grid array, which may appear more than once. The grid goes through
    closedform.grid in one pass, which gives NaN, printed NA, wherever a
    value is undefined, and its cells through one pass of _cells.rows; a
    row's flag is closedform._flags'.
    """
    import numpy as np

    from . import _cells, closedform

    E, V0, a, d = lead[-4:]
    g = closedform.grid(V0, a, d, E, units)
    text = _cells.rows(
        [_fmt(c) if isinstance(c, float) else c for c in lead],
        np.array([g.t_whole, g.t_between, g.t_barriers, g.t_opaque, g.trans_prob]).T,
        closedform._flags(g),
    )
    return [text], g.ok


def cmd_times(args: argparse.Namespace, units: UnitsConfig) -> tuple[list[list[str]], int]:
    if args.potential is not None:
        if args.z1 is None or args.z2 is None or args.E is None:
            raise InvalidParameterError(
                "generic mode needs --potential, --z1, --z2 and --E"
            )
        potential = load_potential_file(args.potential)
        region = ClockRegion(args.z1, args.z2)
        ct = clock_times(potential, region, args.E, units)
        lines = _head(
            "times", units,
            f"potential={args.potential} E={_fmt(args.E)}"
            f" z1={_fmt(args.z1)} z2={_fmt(args.z2)}",
            "E,z1,z2,t_transmitted,t_reflected,t_dwell,trans_prob,refl_prob,flag",
        )
        lines += _rows([args.E, args.z1, args.z2, ct.transmitted, ct.reflected,
                        ct.dwell, ct.transmission_prob, ct.reflection_prob],
                       [not ct.decomposition_residual <= RESIDUAL_TOLERANCE])
    else:
        from . import closedform

        _require_double_barrier(args, ("E", "V0", "a", "d"))
        params = closedform.DoubleBarrierParams(
            V0=args.V0, a=args.a, d=args.d, E=args.E, units=units
        )
        rows, ok = _double_barrier_rows([args.E, args.V0, args.a, args.d], units)
        if not ok[0]:
            raise params.float_range_error()
        lines = _head(
            "times", units,
            f"E={_fmt(args.E)} V0={_fmt(args.V0)} a={_fmt(args.a)} d={_fmt(args.d)}",
            "E,V0,a,d," + DB_COLUMNS,
        ) + rows
    return [lines], 0


_AXES = ("d", "a", "E", "V0")

# Grid points per array pass of a sweep, and rows per written block. A
# pass holds at most some 41 arrays of this length at once (0.34 MB at
# 1024 points, in an E sweep; 28 to 34 in a sweep of d, a or V0, whose
# fixed parameters give one-element intermediates); the cell formatter
# then holds the block's cells as 8-byte words, 470 bytes a sweep row,
# and up to 140 bytes more for each of a row's five values (1.2 MB in
# all at 1024 rows). So blocks bound its memory; every point
# is computed on its own, so any block size gives the same rows.
SWEEP_BLOCK_ROWS = 1024


def _sweep_rows(axis: str, start: float, stop: float, count: int,
                fixed: dict[str, float], units: UnitsConfig) -> Iterator[list[str]]:
    """Blocks of double-barrier CSV rows, one row per grid point of the
    swept axis; an out-of-regime point gives a flagged NA row.

    The grid is allocated here, so a grid too large for memory fails
    before anything is written; each block is made only when asked for.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        # Only the last point can overflow, and linspace sets it to stop.
        grid = np.linspace(start, stop, count)
    parts = (grid[lo:lo + SWEEP_BLOCK_ROWS] for lo in range(0, count, SWEEP_BLOCK_ROWS))
    return (
        _double_barrier_rows(
            [part] + [part if name == axis else fixed[name] for name in ("E", "V0", "a", "d")],
            units,
        )[0]
        for part in parts
    )


def cmd_sweep(args: argparse.Namespace, units: UnitsConfig) -> tuple[Iterator[list[str]], int]:
    if not args.start < args.stop:
        raise InvalidParameterError(
            f"--start must be below --stop, got {args.start} and {args.stop}"
        )
    if args.count < 2:
        raise InvalidParameterError(f"--count must be >= 2, got {args.count}")
    if getattr(args, args.axis) is not None:
        raise InvalidParameterError(
            f"--{args.axis} is the swept axis; do not fix it"
        )
    fixed = {}
    for name in _AXES:
        if name == args.axis:
            continue
        value = getattr(args, name)
        if value is None:
            raise InvalidParameterError(f"--{name} is required when sweeping {args.axis}")
        fixed[name] = value
    for name, value in [("start", args.start), ("stop", args.stop), *fixed.items()]:
        if not math.isfinite(value):
            raise InvalidParameterError(f"--{name} must be finite, got {value}")
    if not math.isfinite(args.stop - args.start):
        raise InvalidParameterError(
            f"the span from --start {args.start} to --stop {args.stop}"
            " leaves the float range"
        )

    rows = _sweep_rows(args.axis, args.start, args.stop, args.count, fixed, units)
    fixed_text = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(fixed.items()))
    head = _head(
        "sweep", units,
        f"axis={args.axis} start={_fmt(args.start)} stop={_fmt(args.stop)}"
        f" count={args.count} {fixed_text}",
        "swept,E,V0,a,d," + DB_COLUMNS,
    )
    return itertools.chain([head], rows), 0


FIG1_E = 0.01
FIG1_V0 = 0.018
FIG1_D_START = 1.0
FIG1_D_STOP = 100.0
FIG1_BARRIER_WIDTH = {"a": 10.0, "b": 30.0}


def cmd_fig1(args: argparse.Namespace, units: UnitsConfig) -> tuple[Iterator[list[str]], int]:
    if args.count < 2:
        raise InvalidParameterError(f"--count must be >= 2, got {args.count}")
    a = FIG1_BARRIER_WIDTH[args.panel]
    fixed = {"E": FIG1_E, "V0": FIG1_V0, "a": a}
    rows = _sweep_rows("d", FIG1_D_START, FIG1_D_STOP, args.count, fixed, units)
    head = _head(
        "fig1", units,
        f"panel={args.panel} E={_fmt(FIG1_E)} V0={_fmt(FIG1_V0)} a={_fmt(a)}"
        f" d={_fmt(FIG1_D_START)}..{_fmt(FIG1_D_STOP)} count={args.count}",
        "swept,E,V0,a,d," + DB_COLUMNS,
    )
    return itertools.chain([head], rows), 0


def _show_warning(show, message, category, *args, **kwargs) -> None:
    """Print a CouplingWarning as one tunnelclock line, independent of
    where in the code it was raised; pass any other warning to show."""
    if issubclass(category, CouplingWarning):
        print(f"tunnelclock: warning: {message}", file=sys.stderr)
    else:
        show(message, category, *args, **kwargs)


def cmd_clock_sim(args: argparse.Namespace, units: UnitsConfig) -> tuple[list[list[str]], int]:
    from .rotor import ClockRotor, measurement_series

    if args.potential is not None:
        potential = load_potential_file(args.potential)
        source = f"potential={args.potential}"
    else:
        _require_double_barrier(args, ("V0", "a", "d"))
        potential = double_barrier(args.V0, args.a, args.d)
        source = f"V0={_fmt(args.V0)} a={_fmt(args.a)} d={_fmt(args.d)}"
    if args.E is None:
        raise InvalidParameterError("--E is required")
    if not potential.heights and None in (args.z1, args.z2):
        raise InvalidParameterError(f"{args.potential}: file holds no region; give --z1 and --z2")
    lo, hi = potential.support
    z1 = args.z1 if args.z1 is not None else lo
    z2 = args.z2 if args.z2 is not None else hi
    region = ClockRegion(z1, z2)

    reference = clock_times(potential, region, args.E, units)

    first = ClockRotor(N=args.N, tau=args.tau)
    with warnings.catch_warnings():
        warnings.showwarning = functools.partial(_show_warning, warnings.showwarning)
        series = measurement_series(
            potential, region, args.E, first, args.halvings, units
        )
    lines = _head(
        "clock-sim", units,
        f"{source} E={_fmt(args.E)} z1={_fmt(z1)} z2={_fmt(z2)}"
        f" N={args.N} tau={_fmt(args.tau)} halvings={args.halvings}",
        "omega,tau,t_read,spread,t_perturbative,trans_weight,flag",
    )
    readings = [
        (rotor.omega, rotor.tau, math.nan, math.nan, math.nan) if result is None
        else (rotor.omega, rotor.tau, result.transmitted.t_read,
              result.transmitted.spread, result.transmitted_weight)
        for rotor, result in series
    ]
    omega, tau, t_read, spread, weight = map(list, zip(*readings))
    residual_fails = not reference.decomposition_residual <= RESIDUAL_TOLERANCE
    flags = [residual_fails or (result is not None
                                and not result.shift_rounding <= RESIDUAL_TOLERANCE)
             for _, result in series]
    lines += _rows([omega, tau, t_read, spread, reference.transmitted, weight], flags)
    return [lines], 0


def cmd_check(args: argparse.Namespace, units: UnitsConfig) -> tuple[list[list[str]], int]:
    suite = decomposition_suite(count=args.count, seed=args.seed, units=units)
    lines = [
        f"# tunnelclock check: count={args.count} seed={args.seed}"
        f" tolerance={_fmt(RESIDUAL_TOLERANCE)}",
        f"max_residual = {_fmt(suite.max_residual)}",
        f"max_unitarity_defect = {_fmt(suite.max_unitarity_defect)}",
    ]
    passed = suite.max_residual <= RESIDUAL_TOLERANCE
    lines.append("PASS" if passed else "FAIL")
    return [lines], 0 if passed else 1


# argparse takes a token that starts with '-' for an option unless it
# matches this; its own pattern has no exponent form and would take
# "-5e-05" for an option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative float literal as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _add_units_and_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mass", type=float, default=1.0,
                        help="particle mass (default 1, natural units)")
    parser.add_argument("--hbar", type=float, default=1.0,
                        help="Planck constant over 2*pi (default 1)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of standard output")


def _add_double_barrier_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--E", type=float, default=None, help="incident energy")
    parser.add_argument("--V0", type=float, default=None, help="barrier height")
    parser.add_argument("--a", type=float, default=None, help="barrier width")
    parser.add_argument("--d", type=float, default=None,
                        help="gap between the two barriers")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tunnelclock",
        description="Tunneling times for piecewise-constant potentials: "
        "clock times from overlap integrals, dwell integrals, double-barrier "
        "closed forms, and a discrete-clock measurement simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_times = sub.add_parser(
        "times",
        help="one evaluation: double-barrier closed forms, or clock/dwell "
        "times for a potential file",
        epilog=POTENTIAL_FILE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_double_barrier_flags(p_times)
    p_times.add_argument("--potential", default=None, metavar="FILE",
                         help="potential file (switches to generic mode)")
    p_times.add_argument("--z1", type=float, default=None,
                         help="clock region left edge (generic mode)")
    p_times.add_argument("--z2", type=float, default=None,
                         help="clock region right edge (generic mode)")
    _add_units_and_out(p_times)
    p_times.set_defaults(func=cmd_times)

    p_sweep = sub.add_parser(
        "sweep", help="sweep one double-barrier parameter, CSV row per point"
    )
    p_sweep.add_argument("--axis", choices=_AXES, required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--count", type=int, required=True)
    _add_double_barrier_flags(p_sweep)
    _add_units_and_out(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig1 = sub.add_parser(
        "fig1",
        help="preset spacing sweeps of the bundled double-barrier example "
        "(panel a: width 10, panel b: width 30)",
    )
    p_fig1.add_argument("--panel", choices=("a", "b"), required=True)
    p_fig1.add_argument("--count", type=int, default=200,
                        help="grid points over the spacing range (default 200)")
    _add_units_and_out(p_fig1)
    p_fig1.set_defaults(func=cmd_fig1)

    p_sim = sub.add_parser(
        "clock-sim",
        help="discrete-clock measurement simulation over halved couplings",
        epilog=POTENTIAL_FILE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_sim.add_argument("--N", type=int, required=True, help="clock levels (odd)")
    p_sim.add_argument("--tau", type=float, required=True,
                       help="clock resolution at the first row")
    p_sim.add_argument("--halvings", type=int, default=3,
                       help="how many times the coupling is halved (default 3)")
    _add_double_barrier_flags(p_sim)
    p_sim.add_argument("--potential", default=None, metavar="FILE",
                       help="potential file (replaces the double-barrier flags)")
    p_sim.add_argument("--z1", type=float, default=None,
                       help="clock region left edge (default: potential support)")
    p_sim.add_argument("--z2", type=float, default=None,
                       help="clock region right edge (default: potential support)")
    _add_units_and_out(p_sim)
    p_sim.set_defaults(func=cmd_clock_sim)

    p_check = sub.add_parser(
        "check",
        help="randomized dwell-decomposition residual suite (exit 1 on FAIL)",
    )
    p_check.add_argument("--count", type=int, default=200,
                         help="number of random instances (default 200)")
    p_check.add_argument("--seed", type=int, default=0,
                         help="random seed (default 0)")
    _add_units_and_out(p_check)
    p_check.set_defaults(func=cmd_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use and kept for the process.

    argparse keeps no state between parse_args calls (each builds a fresh
    namespace, and help is formatted only when printed), so reuse leaves
    every output unchanged.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        blocks, code = args.func(args, UnitsConfig(mass=args.mass, hbar=args.hbar))
        _emit(blocks, args.out)
        return code
    except (InvalidParameterError, CouplingWarning) as exc:
        # a CouplingWarning arrives here only where the warning filters
        # turn it into an error
        print(f"tunnelclock: {exc}", file=sys.stderr)
        return 2
    except TunnelClockError as exc:
        print(f"tunnelclock: numerical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"tunnelclock: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Only a write raises OSError here: a command turns a failed read
        # into InvalidParameterError.
        if args.out is None:
            _discard_stdout()
            if isinstance(exc, BrokenPipeError):
                # The reader has gone, as after head; nothing to report.
                return 1
        print(f"tunnelclock: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
