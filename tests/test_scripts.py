"""Smoke runs of the scripts under scripts/, with small arguments."""

import importlib.util
from pathlib import Path

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


def test_fig1_data_writes_both_panels(tmp_path, capsys):
    script = _load("fig1_data")
    assert script.main(["--count", "20", "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["panel_a.csv", "panel_b.csv"]
    for path in tmp_path.iterdir():
        lines = [line for line in path.read_text().splitlines()
                 if line and not line.startswith("#")]
        assert lines[0].startswith("swept,")
        assert len(lines) == 21
    out = capsys.readouterr().out
    assert "panel a (a=10)" in out and "panel b (a=30)" in out
