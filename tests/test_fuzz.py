"""Bounded in-process fuzz of the command line.

Every float flag of times, sweep, fig1, clock-sim and check takes each of
the float-range extremes in turn, then seeded pairs of flags take two at
once. Every run must end with exit code 0, 1 or 2 and leave no Traceback
on stderr; a raw exception out of main fails the run too.
"""

import contextlib
import io
import random
import warnings

import pytest

from tunnelclock.cli import build_parser, main

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


def run(argv):
    """Exit code and stderr of one in-process call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code
    return code, err.getvalue()


def test_extremes_and_pairs_end_cleanly(tmp_path):
    pot = tmp_path / "pot.txt"
    pot.write_text(BARRIER_FILE, encoding="utf-8")
    failures = []
    count = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for argv in cases(pot):
            count += 1
            try:
                code, err = run(argv)
            except Exception as exc:
                failures.append((" ".join(argv), f"raised {type(exc).__name__}: {exc}"))
                continue
            if code not in (0, 1, 2) or "Traceback" in err:
                failures.append((" ".join(argv), f"exit {code}"))
    assert count > 900
    assert failures == []


@pytest.mark.parametrize("base", BASES)
def test_every_base_call_succeeds(tmp_path, base):
    pot = tmp_path / "pot.txt"
    pot.write_text(BARRIER_FILE, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(base.format(pot=pot).split()) == (0, "")
