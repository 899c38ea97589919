"""Tests of the benchmark itself: inputs, failure accounting, tracing.

Run with ``python3 -m pytest -q benchmarks`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import verify
from tracing import NAMES, Tracer
from workloads import WORKLOADS, Call, make_inputs, write_inputs

import tunnelclock
from tunnelclock import cli

BENCH_DIR = Path(__file__).resolve().parent


def _written(tmp_path, workload, seed, name):
    directory = tmp_path / name
    calls = write_inputs(make_inputs(workload, seed), str(directory))
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    argv = [[a.replace(str(directory), "DIR") for a in c.argv] for c in calls]
    return json.dumps(argv).encode(), files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    first = _written(tmp_path, workload, 5, "a")
    assert _written(tmp_path, workload, 5, "b") == first
    assert _written(tmp_path, workload, 6, "c") != first


def _fake_main(argv):
    if argv[0] == "raise":
        raise OverflowError("math range error")
    if argv[0] == "fail":
        print("FAIL")
        return 1
    print("PASS")
    return 0


def test_failed_calls_are_counted_and_do_not_abort(monkeypatch):
    monkeypatch.setattr(cli, "main", _fake_main)
    calls = [Call(("raise",), 1), Call(("fail",), 1), Call(("check",), 1)]
    checked = []
    first = run.run_pass(calls, checked)
    assert [reason for _, reason in checked] == ["raised OverflowError", "exit 1", None]
    again = run.run_pass(calls, checked)
    for result in (first, again):
        assert result.reasons == ["raised OverflowError", "exit 1", None]
        assert result.mismatches == 0 and len(result.seconds) == 3
    assert run.failed_calls([first, again]) == 2


def test_changed_output_counts_as_failed(monkeypatch):
    calls = [Call(("check",), 1)]
    monkeypatch.setattr(cli, "main", _fake_main)
    checked = []
    run.run_pass(calls, checked)
    monkeypatch.setattr(cli, "main", lambda argv: print("PASS ") or 0)
    result = run.run_pass(calls, checked)
    assert result.mismatches == 1 and result.reasons[0] is not None


def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "tunnelclock" or name.startswith("tunnelclock.")
            for attr, value in vars(module).items() if callable(value)}


def test_tracer_wraps_every_binding_and_restores_it():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            during = _bindings()
            for key in [("tunnelclock.cli", "clock_times"), ("tunnelclock.checks", "clock_times"),
                        ("tunnelclock.clocktimes", "perturb"), ("tunnelclock.rotor", "perturb"),
                        ("tunnelclock.cli", "measurement_simulation"),
                        ("tunnelclock.scattering", "solve"), ("tunnelclock", "solve"),
                        ("tunnelclock.rotor", "read_pointer"), ("tunnelclock.closedform", "times")]:
                assert during[key] is not before[key]
                assert during[key].__wrapped__ is before[key]
            raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _spec(section):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


def test_traced_output_is_byte_identical(tmp_path):
    calls = write_inputs(make_inputs("stack-generic", 3), str(tmp_path))[:12]
    calls.append(Call(("clock-sim", "--N", "21", "--tau", "25000.0", "--halvings", "1",
                       "--V0", "0.018", "--a", "10.0", "--d", "10.0", "--E", "0.01"), 2))
    checked = []
    untraced = [run.run_pass(calls, checked) for _ in range(run.MIN_PASSES)]
    assert _spec("end_to_end") == set(run.end_to_end(calls, untraced, [0.1]))
    tracer = Tracer()
    with tracer:
        traced = run.run_pass(calls, checked, 100, tracer)
    assert traced.mismatches == 0
    totals = tracer.totals()
    assert totals["calls"]["cli.main"] == len(calls)
    assert totals["calls"]["rotor.read_pointer"] >= 2
    assert totals["grid_cells"] == 16 * 21**2 * totals["calls"]["rotor.read_pointer"]
    assert totals["solves_in_clock_times"] <= totals["calls"]["scattering.solve"]
    assert set(tracer.call) == set(range(100, 100 + len(calls)))
    roots = [p for p, n in zip(tracer.parent, tracer.name) if n == NAMES.index("cli.main")]
    assert roots == [0] * len(calls)
    assert _spec("per_layer") <= set(run.per_layer([totals], [traced], untraced))


def test_checks_reject_a_wrong_number():
    argv = ("times", "--E", "0.01", "--V0", "0.018", "--a", "10.0", "--d", "10.0")
    outcome = run.invoke(argv)
    assert verify.failure(argv, outcome.stdout) is None
    header, row = outcome.stdout.splitlines()[-2:]
    values = row.split(",")
    values[4] = repr(float(values[4]) * (1 + 1e-6))  # t_whole
    wrong = outcome.stdout.replace(row, ",".join(values))
    assert verify.failure(argv, wrong) is not None


def test_benchmark_json_names_the_workloads():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "stack-generic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_program_under_test_is_the_checkout():
    assert Path(tunnelclock.__file__).resolve().parent == run.SRC / "tunnelclock"
