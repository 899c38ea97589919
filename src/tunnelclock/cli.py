"""Command-line front end: point evaluations, sweeps, presets, clock runs.

All data output is CSV: comment lines prefixed '#' carry the parameter
set and the units convention, then one fixed header line, then rows.
Floats are printed with 17 significant digits so values round-trip
exactly; reruns with identical flags produce byte-identical output.
Undefined entries are the literal token NA and set the row's flag column.

Exit codes: 0 success (flagged rows included), 2 argument/validation
problems, 1 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import closedform, scattering
from .checks import decomposition_suite
from .clocktimes import clock_times
from .errors import (
    CouplingTooStrongError,
    InvalidParameterError,
    TunnelClockError,
)
from .potentials import (
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
    double_barrier,
)
from .rotor import ClockRotor, measurement_simulation

__all__ = ["main", "build_parser", "load_potential_file"]

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


def _fmt(value: float | int | None) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NA"
    return f"{value:.17g}"


def _units_comment(units: UnitsConfig) -> str:
    return (
        f"# units: mass={_fmt(units.mass)} hbar={_fmt(units.hbar)}"
        " (defaults are natural units, where distances and times are"
        " expressed in units of 1/mass)"
    )


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def load_potential_file(path: str) -> PiecewiseConstantPotential:
    """Parse the alternating breakpoint/height text format."""
    breakpoints: list[float] = []
    heights: list[float] = []
    expect = "breakpoint"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read potential file: {exc}") from exc
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
        if keyword == "breakpoint":
            breakpoints.append(value)
            expect = "height"
        else:
            heights.append(value)
            expect = "breakpoint"
    if expect == "breakpoint" and breakpoints:
        raise InvalidParameterError(
            f"{path}: file must end with a breakpoint line"
        )
    return PiecewiseConstantPotential(tuple(breakpoints), tuple(heights))


def _double_barrier_row(
    params: closedform.DoubleBarrierParams,
) -> tuple[list[float | None], int]:
    t = closedform.times(params)
    trans_prob = abs(closedform.perturbed_amplitude(params)) ** 2
    flag = 1 if closedform.near_resonance(params) else 0
    values = [t.t_whole, t.t_between, t.t_barriers, t.t_opaque, trans_prob]
    return values, flag

DB_COLUMNS = "t_whole,t_between,t_barriers,t_opaque,trans_prob,flag"


def _parse_units(args: argparse.Namespace) -> UnitsConfig:
    return UnitsConfig(mass=args.mass, hbar=args.hbar)


def cmd_times(args: argparse.Namespace) -> int:
    units = _parse_units(args)
    lines = ["# tunnelclock times", _units_comment(units)]
    if args.potential is not None:
        if args.z1 is None or args.z2 is None or args.E is None:
            raise InvalidParameterError(
                "generic mode needs --potential, --z1, --z2 and --E"
            )
        potential = load_potential_file(args.potential)
        region = ClockRegion(args.z1, args.z2)
        lines.append(
            f"# potential={args.potential} E={_fmt(args.E)}"
            f" z1={_fmt(args.z1)} z2={_fmt(args.z2)}"
        )
        lines.append(
            "E,z1,z2,t_transmitted,t_reflected,t_dwell,trans_prob,refl_prob,flag"
        )
        ct = clock_times(potential, region, args.E, units)
        row = [
            args.E,
            args.z1,
            args.z2,
            ct.transmitted,
            ct.reflected,
            ct.dwell,
            ct.transmission_prob,
            ct.reflection_prob,
        ]
        flag = 1 if (ct.transmitted is None or ct.reflected is None) else 0
        lines.append(",".join(_fmt(v) for v in row) + f",{flag}")
    else:
        for name in ("E", "V0", "a", "d"):
            if getattr(args, name) is None:
                raise InvalidParameterError(
                    f"double-barrier mode needs --{name} (or use --potential)"
                )
        params = closedform.DoubleBarrierParams(
            V0=args.V0, a=args.a, d=args.d, E=args.E, units=units
        )
        lines.append(
            f"# E={_fmt(args.E)} V0={_fmt(args.V0)} a={_fmt(args.a)} d={_fmt(args.d)}"
        )
        lines.append("E,V0,a,d," + DB_COLUMNS)
        values, flag = _double_barrier_row(params)
        row = [args.E, args.V0, args.a, args.d, *values]
        lines.append(",".join(_fmt(v) for v in row) + f",{flag}")
    _emit(lines, args.out)
    return 0


_AXES = ("d", "a", "E", "V0")


def _sweep_rows(
    axis: str,
    start: float,
    stop: float,
    count: int,
    fixed: dict[str, float],
    units: UnitsConfig,
) -> list[str]:
    """One double-barrier CSV row per grid point of the swept axis."""
    rows = []
    point = dict(fixed)
    for value in np.linspace(start, stop, count):
        value = float(value)
        point[axis] = value
        try:
            params = closedform.DoubleBarrierParams(
                V0=point["V0"], a=point["a"], d=point["d"], E=point["E"], units=units
            )
            values, flag = _double_barrier_row(params)
        except InvalidParameterError:
            # Out-of-regime grid point: keep the row, mark it, move on.
            row = [value, point["E"], point["V0"], point["a"], point["d"],
                   None, None, None, None, None]
            rows.append(",".join(_fmt(v) for v in row) + ",1")
            continue
        row = [value, point["E"], point["V0"], point["a"], point["d"], *values]
        rows.append(",".join(_fmt(v) for v in row) + f",{flag}")
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    units = _parse_units(args)
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

    lines = ["# tunnelclock sweep", _units_comment(units)]
    fixed_text = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(fixed.items()))
    lines.append(
        f"# axis={args.axis} start={_fmt(args.start)} stop={_fmt(args.stop)}"
        f" count={args.count} {fixed_text}"
    )
    lines.append("swept,E,V0,a,d," + DB_COLUMNS)
    lines.extend(
        _sweep_rows(args.axis, args.start, args.stop, args.count, fixed, units)
    )
    _emit(lines, args.out)
    return 0


FIG1_E = 0.01
FIG1_V0 = 0.018
FIG1_D_START = 1.0
FIG1_D_STOP = 100.0
FIG1_BARRIER_WIDTH = {"a": 10.0, "b": 30.0}


def cmd_fig1(args: argparse.Namespace) -> int:
    units = _parse_units(args)
    if args.count < 2:
        raise InvalidParameterError(f"--count must be >= 2, got {args.count}")
    a = FIG1_BARRIER_WIDTH[args.panel]
    lines = [
        "# tunnelclock fig1",
        _units_comment(units),
        f"# panel={args.panel} E={_fmt(FIG1_E)} V0={_fmt(FIG1_V0)} a={_fmt(a)}"
        f" d={_fmt(FIG1_D_START)}..{_fmt(FIG1_D_STOP)} count={args.count}",
        "swept,E,V0,a,d," + DB_COLUMNS,
    ]
    fixed = {"E": FIG1_E, "V0": FIG1_V0, "a": a}
    lines.extend(
        _sweep_rows("d", FIG1_D_START, FIG1_D_STOP, args.count, fixed, units)
    )
    _emit(lines, args.out)
    return 0


def cmd_clock_sim(args: argparse.Namespace) -> int:
    units = _parse_units(args)
    if args.potential is not None:
        potential = load_potential_file(args.potential)
        source = f"potential={args.potential}"
    else:
        for name in ("V0", "a", "d"):
            if getattr(args, name) is None:
                raise InvalidParameterError(
                    f"double-barrier mode needs --{name} (or use --potential)"
                )
        potential = double_barrier(args.V0, args.a, args.d)
        source = f"V0={_fmt(args.V0)} a={_fmt(args.a)} d={_fmt(args.d)}"
    if args.E is None:
        raise InvalidParameterError("--E is required")
    if args.halvings < 0:
        raise InvalidParameterError(f"--halvings must be >= 0, got {args.halvings}")
    lo, hi = potential.support
    z1 = args.z1 if args.z1 is not None else lo
    z2 = args.z2 if args.z2 is not None else hi
    region = ClockRegion(z1, z2)

    reference = clock_times(potential, region, args.E, units).transmitted

    lines = [
        "# tunnelclock clock-sim",
        _units_comment(units),
        f"# {source} E={_fmt(args.E)} z1={_fmt(z1)} z2={_fmt(z2)}"
        f" N={args.N} tau={_fmt(args.tau)} halvings={args.halvings}",
        "omega,tau,t_read,spread,t_perturbative,trans_weight,flag",
    ]
    tau = args.tau
    for step in range(args.halvings + 1):
        if step:
            # Doubling is exact; past the float range ClockRotor rejects tau.
            tau *= 2.0
        rotor = ClockRotor(N=args.N, tau=tau)
        try:
            result = measurement_simulation(potential, region, args.E, rotor, units)
        except CouplingTooStrongError:
            row = [rotor.omega, tau, None, None, reference, None]
            lines.append(",".join(_fmt(v) for v in row) + ",1")
            continue
        row = [
            rotor.omega,
            tau,
            result.transmitted.t_read,
            result.transmitted.spread,
            reference,
            result.transmitted_weight,
        ]
        lines.append(",".join(_fmt(v) for v in row) + ",0")
    _emit(lines, args.out)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    units = _parse_units(args)
    suite = decomposition_suite(count=args.count, seed=args.seed, units=units)
    lines = [
        f"# tunnelclock check: count={args.count} seed={args.seed}"
        f" tolerance={_fmt(RESIDUAL_TOLERANCE)}",
        f"max_residual = {_fmt(suite.max_residual)}",
        f"max_unitarity_defect = {_fmt(suite.max_unitarity_defect)}",
    ]
    passed = suite.max_residual <= RESIDUAL_TOLERANCE
    lines.append("PASS" if passed else "FAIL")
    _emit(lines, args.out)
    return 0 if passed else 1


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
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"tunnelclock: {exc}", file=sys.stderr)
        return 2
    except TunnelClockError as exc:
        print(f"tunnelclock: numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
