"""Smoke runs of the scripts under scripts/, with small arguments."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    path = SCRIPTS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_clock_convergence_prints_one_row_per_coupling(capsys):
    script = _load("clock_convergence")
    assert script.main(["--halvings", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("overlap-integral clock time:")
    rows = lines[2:]
    assert len(rows) == 3
    assert all("coupling too strong" not in row for row in rows)
    # the error ratio column of the later rows shows quadratic convergence
    ratios = [float(row.split()[-1]) for row in rows[1:]]
    assert all(3.5 < ratio < 4.5 for ratio in ratios)


def test_clock_convergence_reports_strong_couplings_and_failures(capsys):
    script = _load("clock_convergence")
    # tau = 300 pushes the first row's largest level shift past the energy margin
    assert script.main(["--tau", "300", "--halvings", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 2
    assert rows[0].endswith(" 300 coupling too strong")
    assert "coupling too strong" not in rows[1]
    # a failed clock-sim run gives its exit code and its one stderr line
    assert script.main(["--N", "4"]) == 2
    assert capsys.readouterr() == ("", "tunnelclock: N must be odd and >= 3, got 4\n")


@pytest.mark.parametrize("argv, digest", [
    ([], "4e1d5b19185ed3af88712eca86c4d02c16997ab1757a188a507a5212aeace278"),
    (["--N", "401", "--halvings", "3"],
     "612d990455a19073d437d3274d04b2570bff63be3d90931241a161f9fbc17e6d"),
])
def test_clock_convergence_table_is_unchanged(capsys, argv, digest):
    # SHA-256 of the printed table, recorded with one scalar sweep per level
    assert _load("clock_convergence").main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_fig1_data_writes_both_panels(tmp_path, capsys):
    script = _load("fig1_data")
    assert script.main(["--count", "20", "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["panel_a.csv", "panel_b.csv"]
    out = capsys.readouterr().out
    for panel, a in (("a", 10), ("b", 30)):
        lines = [line for line in (tmp_path / f"panel_{panel}.csv").read_text().splitlines()
                 if line and not line.startswith("#")]
        assert lines[0].startswith("swept,")
        assert len(lines) == 21
        # the summary counts the flagged rows of the CSV it wrote
        flagged = sum(line.endswith(",1") for line in lines[1:])
        assert f"panel {panel} (a={a}): {flagged} flagged peak points" in out


def test_cell_diff_of_a_tree_against_itself_reports_no_change(tmp_path, capsys):
    # each tree runs in its own subprocess, so keep to a few calls
    root = str(SCRIPTS.parent)
    script = _load("cell_diff")
    workloads = script._workloads()
    inputs = workloads.make_inputs("sweep-closedform", 1)
    calls = [list(call.argv) for call in workloads.write_inputs(inputs, str(tmp_path))][:6]
    old, new = script.run_trees([root, root], calls, str(tmp_path))
    assert not script.report(*script.compare(calls, old, new), len(calls))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("6 calls, ")
    assert lines[1:] == ["no cell changed",
                         "0 calls differ in exit code, stderr, comments or table shape"]


def test_cell_diff_counts_changes_per_column():
    script = _load("cell_diff")
    header = "# comment\nx,t,flag\n"
    old = [(0, header + "1,2.0,0\n2,NA,1\n3,4.0,0\n", ""), (2, "", "error\n")]
    new = [(0, header + "1,2.5,0\n2,7.0,1\n3,NA,0\n", ""), (2, "", "other error\n")]
    columns, rows, differing = script.compare([["a"], ["b", "c"]], old, new)
    assert rows == 3
    t = columns["t"]
    assert (t.changed, t.worst, t.to_number, t.to_na) == (3, 0.25, 1, 1)
    assert columns["x"].changed == columns["flag"].changed == 0
    assert differing == ["b c: stderr 'error' -> 'other error'"]
