"""Bounded in-process fuzz of the command line.

Every float flag of times, sweep, fig1, clock-sim and check takes each of
the float-range extremes in turn, then seeded pairs of flags take two at
once, then a few calls near the float limit. Apart from that, every call
reads odd potential files (see ODD_FILES), and writes --out paths that
cannot be opened. Every run must end with exit code 0, 1 or 2 and leave no
Traceback on stderr; a raw exception out of main fails the run too. A
run that exits 0 must print only CSV data cells that are finite numbers
or NA, with flag 1 on every row that has an NA, and no run may raise a
RuntimeWarning.
"""

import contextlib
import io
import math
import random
import warnings

import pytest

from tunnelclock.cli import build_parser, main
from tunnelclock.errors import CouplingWarning

EXTREMES = (
    "0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308",
    "1e-300", "-1e-300", "1e300", "-1e300",
    "1.7976931348623157e308", "-1.7976931348623157e308",
    "inf", "-inf", "nan",
)

BARRIER_FILE = """\
breakpoint 0.0
height 0.018
breakpoint 10.0
height 0.0
breakpoint 20.0
height 0.012
breakpoint 25.0
"""

# Valid calls; the fuzz sets one or two of their float flags.
BASES = (
    "times --E 0.01 --V0 0.018 --a 10 --d 10",
    "times --potential {pot} --E 0.009 --z1 0 --z2 25",
    "sweep --axis d --start 1 --stop 100 --count 5 --E 0.01 --V0 0.018 --a 10",
    "fig1 --panel a --count 5",
    "clock-sim --N 21 --tau 25000 --halvings 1 --E 0.01 --V0 0.018 --a 10 --d 10",
    "clock-sim --N 5 --tau 100000 --halvings 1 --E 0.009 --potential {pot}",
    "check --count 3",
)

PAIRS = 300
SEED = 20261018

# Calls apart from the extremes and pairs of the bases.
EXTRA_CALLS = (
    # the grid's last point overflows before linspace sets it to stop
    "sweep --axis d --start 0.5 --stop 1.7976931348623157e308 --count 7"
    " --E 0.01 --V0 0.018 --a 10",
)


def float_flags(command):
    """The options of a subcommand that take a float."""
    subparsers = build_parser()._subparsers._group_actions[0]
    return [action.option_strings[0]
            for action in subparsers.choices[command]._actions
            if action.type is float]


def with_values(argv, values):
    argv = list(argv)
    for flag, value in values.items():
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    return argv


def cases(pot):
    bases = [base.format(pot=pot).split() for base in BASES]
    flags = [float_flags(argv[0]) for argv in bases]
    for argv, names in zip(bases, flags):
        for flag in names:
            for value in EXTREMES:
                yield with_values(argv, {flag: value})
    rng = random.Random(SEED)
    for _ in range(PAIRS):
        index = rng.randrange(len(bases))
        first, second = rng.sample(flags[index], 2)
        yield with_values(bases[index], {first: rng.choice(EXTREMES),
                                         second: rng.choice(EXTREMES)})
    for call in EXTRA_CALLS:
        yield call.split()


def run(argv):
    """Exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def wrong_cells(out):
    """The CSV data cells of an output that are neither a finite number
    nor NA, and the flag cell of each row that has an NA cell but a flag
    other than 1; check prints a report, not a CSV, and has none."""
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    if not lines or "," not in lines[0]:
        return []
    wrong = []
    for line in lines[1:]:
        cells = line.split(",")
        for cell in cells:
            try:
                finite = cell == "NA" or math.isfinite(float(cell))
            except ValueError:
                finite = False
            if not finite:
                wrong.append(cell)
        if "NA" in cells and cells[-1] != "1":
            wrong.append(f"NA row flagged {cells[-1]}")
    return wrong


def failures_of(argv):
    """What went wrong in one call: an empty list if it ended cleanly."""
    failures = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("ignore", CouplingWarning)
        try:
            code, out, err = run(argv)
        except Exception as exc:
            return [(" ".join(argv), f"raised {type(exc).__name__}: {exc}")]
    if code not in (0, 1, 2) or "Traceback" in err:
        failures.append((" ".join(argv), f"exit {code}"))
    elif code == 0 and wrong_cells(out):
        failures.append((" ".join(argv), f"printed {sorted(set(wrong_cells(out)))}"))
    if any(issubclass(w.category, RuntimeWarning) for w in caught):
        failures.append((" ".join(argv), "RuntimeWarning"))
    return failures


def test_extremes_and_pairs_end_cleanly(tmp_path):
    pot = tmp_path / "pot.txt"
    pot.write_text(BARRIER_FILE, encoding="utf-8")
    failures = []
    count = 0
    for argv in cases(pot):
        count += 1
        failures += failures_of(argv)
    assert count > 900
    assert failures == []


# Potential files that are not plain LF-terminated UTF-8 text, hold no
# breakpoint, hold a value that is not finite or breakpoints that do not
# increase, or whose incident coefficient cancels to zero.
ODD_FILES = {
    "invalid-utf8": BARRIER_FILE.encode().replace(b"0.018", b"\xff0.018"),
    "nul-byte": BARRIER_FILE.encode().replace(b"0.018", b"0.0\x0018"),
    "utf8-bom": b"\xef\xbb\xbf" + BARRIER_FILE.encode(),
    "crlf": BARRIER_FILE.replace("\n", "\r\n").encode(),
    "empty": b"",
    "comment-only": b"# no breakpoints\n\n",
    "nan-height": BARRIER_FILE.replace("0.018", "nan").encode(),
    "inf-height": BARRIER_FILE.replace("0.018", "inf").encode(),
    "overflowing-height": BARRIER_FILE.replace("0.018", "1e999").encode(),
    "decreasing": BARRIER_FILE.replace("20.0", "5.0").encode(),
    # a barrier 1e-300 wide and 1e40 high, then a free region
    "thin": b"breakpoint 0\nheight 1e40\nbreakpoint 1e-300\nheight 0\nbreakpoint 3\n",
}


def file_cases(tmp_path):
    """Every base call with an odd potential file, a directory as the
    potential file, an --out path in a missing directory and an --out
    path that is a directory."""
    paths = []
    for name, data in ODD_FILES.items():
        path = tmp_path / f"{name}.txt"
        path.write_bytes(data)
        paths.append(path)
    for base in BASES:
        if "{pot}" in base:
            for path in [*paths, tmp_path]:
                yield base.format(pot=path).split()
    pot = tmp_path / "pot.txt"
    pot.write_text(BARRIER_FILE, encoding="utf-8")
    for base in BASES:
        argv = base.format(pot=pot).split()
        yield argv + ["--out", str(tmp_path / "missing" / "out.csv")]
        yield argv + ["--out", str(tmp_path)]


def test_odd_files_and_out_paths_end_cleanly(tmp_path):
    failures = []
    for argv in file_cases(tmp_path):
        failures += failures_of(argv)
    assert failures == []


@pytest.mark.parametrize("base", BASES)
def test_every_base_call_succeeds(tmp_path, base):
    pot = tmp_path / "pot.txt"
    pot.write_text(BARRIER_FILE, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run(base.format(pot=pot).split())
    assert (code, err) == (0, "") and wrong_cells(out) == []
