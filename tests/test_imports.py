"""Which commands import numpy, each in a fresh interpreter.

The generic route (potentials, scattering, clocktimes, checks) never
uses numpy, and the package and the CLI import closedform, rotor, the
cell formatter and numpy only where a command needs them. This test
process imported numpy long ago, so each case runs in its own
``python -c``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tunnelclock
from tunnelclock import scattering

SRC = Path(__file__).resolve().parents[1] / "src"

BARRIER_FILE = """\
breakpoint 0.0
height 0.018
breakpoint 10.0
height 0.0
breakpoint 20.0
height 0.012
breakpoint 25.0
"""


WATCHED = ("numpy", "tunnelclock._cells")


def loaded(statement, cwd):
    """Which of numpy and the cell formatter are in sys.modules after the
    statement runs in a fresh interpreter with this checkout's package on
    the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (f"import sys\n{statement}\n"
            f"print(sorted(set(sys.modules) & {set(WATCHED)!r}), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stderr.splitlines()[-1]))


@pytest.mark.parametrize("statement", [
    "from tunnelclock import cli; cli.main(['times', '--potential', 'pot.txt',"
    " '--E', '0.009', '--z1', '0', '--z2', '25'])",
    "from tunnelclock import cli; cli.main(['check', '--count', '3'])",
    "from tunnelclock import cli",
    "from tunnelclock import solve, clock_times, double_barrier, ClockRegion,"
    " decomposition_suite",
])
def test_generic_route_never_imports_numpy(tmp_path, statement):
    (tmp_path / "pot.txt").write_text(BARRIER_FILE, encoding="utf-8")
    assert loaded(statement, tmp_path) == set()


CLOSED_FORM_TIMES = ("from tunnelclock import cli; cli.main(['times', '--E', '0.01',"
                     " '--V0', '0.018', '--a', '10', '--d', '10'])")


@pytest.mark.parametrize("statement", [
    CLOSED_FORM_TIMES,
    "from tunnelclock import times",
    "import tunnelclock; tunnelclock.__all__",
])
def test_closed_forms_and_the_full_export_list_import_numpy(tmp_path, statement):
    # The control: the check above would read an empty set if it saw nothing.
    assert "numpy" in loaded(statement, tmp_path)


def test_only_csv_rows_of_a_grid_import_the_cell_formatter(tmp_path):
    assert loaded(CLOSED_FORM_TIMES, tmp_path) == set(WATCHED)
    assert loaded("from tunnelclock import times", tmp_path) == {"numpy"}


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from tunnelclock import *", namespace)
    assert set(tunnelclock.__all__) <= set(namespace)
    assert set(tunnelclock.__all__) <= set(dir(tunnelclock))


def test_resolved_names_are_not_stored_in_the_package(monkeypatch):
    assert tunnelclock.solve is scattering.solve
    assert "solve" not in vars(tunnelclock)
    # A rebinding in the home module, as the benchmark's tracer makes,
    # shows through the package and is gone once undone.
    monkeypatch.setattr(scattering, "solve", len)
    assert tunnelclock.solve is len
    monkeypatch.undo()
    assert tunnelclock.solve is scattering.solve


def test_unknown_names_raise_attribute_error():
    assert not hasattr(tunnelclock, "no_such_name")
    assert not hasattr(tunnelclock, "__no_such_dunder__")
