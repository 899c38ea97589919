#!/usr/bin/env python3
"""Diff the CLI output of two source trees cell by cell.

Runs the calls of one workload and seed of benchmarks/workloads.py, or
the commands given with --call, through ``tunnelclock.cli.main`` once
under each tree, each tree in its own subprocess with only its ``src``
on the import path. Then prints, per CSV column, the number of changed
cells, the worst relative change of a number and the NA <-> number
flips, and lists the calls whose exit code, stderr, comment lines or
table shape differ.

    python scripts/cell_diff.py OLD_TREE NEW_TREE --workload sweep-closedform --seed 1
    python scripts/cell_diff.py OLD_TREE NEW_TREE --call "times --E 0.01 --V0 0.018 --a 10 --d 10"

A tree is a checkout of the repository, for example one made with
``git archive REV | tar -x -C DIR``. Exits 0 when nothing differs and 1
otherwise.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PY = ROOT / "benchmarks" / "workloads.py"


def _workloads():
    """benchmarks/workloads.py as a module, loaded without changing it."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _worker(tree: str, calls_path: str, out_path: str) -> int:
    """Run each argv of calls_path through cli.main; write (exit code,
    stdout, stderr) per call to out_path."""
    import tunnelclock
    from tunnelclock.cli import main

    src = Path(tree) / "src"
    if src not in Path(tunnelclock.__file__).resolve().parents:
        sys.exit(f"cell_diff: imported {tunnelclock.__file__}, not the tree under {src}")
    outcomes = []
    for argv in json.loads(Path(calls_path).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code
        outcomes.append((code, out.getvalue(), err.getvalue()))
    Path(out_path).write_text(json.dumps(outcomes), encoding="utf-8")
    return 0


def run_trees(trees, calls, directory):
    """The outcomes of the calls under each tree, both trees at once."""
    calls_path = os.path.join(directory, "calls.json")
    Path(calls_path).write_text(json.dumps(calls), encoding="utf-8")
    processes, paths = [], []
    for index, tree in enumerate(trees):
        tree = Path(tree).resolve()
        path = os.path.join(directory, f"outcomes-{index}.json")
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        processes.append(subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
             calls_path, path],
            cwd=directory, env=env))
        paths.append(path)
    if any([process.wait() for process in processes]):
        raise SystemExit("cell_diff: a tree's run failed")
    return [json.loads(Path(path).read_text(encoding="utf-8")) for path in paths]


def _table(text):
    """(comment lines, header, rows) of a CLI output."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    table = [line.split(",") for line in lines if line and not line.startswith("#")]
    return comments, (table[0] if table else []), table[1:]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


class Column:
    """Changes seen in one CSV column."""

    def __init__(self):
        self.changed = 0
        self.worst = 0.0
        self.to_number = 0
        self.to_na = 0

    def add(self, old, new):
        if old == new:
            return
        self.changed += 1
        x, y = _number(old), _number(new)
        if old == "NA" and y is not None:
            self.to_number += 1
        elif new == "NA" and x is not None:
            self.to_na += 1
        elif x is not None and y is not None and not (math.isnan(x) or math.isnan(y)):
            change = abs(y - x) / abs(x) if x else math.inf
            self.worst = max(self.worst, change)


def compare(calls, old, new):
    """(columns, rows, differing calls): per-column changes over the
    tables, the number of rows compared, and a line per call whose exit
    code, stderr, comments or table shape differ."""
    columns, rows, differing = {}, 0, []
    for argv, (code0, out0, err0), (code1, out1, err1) in zip(calls, old, new):
        reasons = []
        if code0 != code1:
            reasons.append(f"exit {code0} -> {code1}")
        if err0 != err1:
            reasons.append(f"stderr {err0.strip()!r} -> {err1.strip()!r}")
        comments0, header0, rows0 = _table(out0)
        comments1, header1, rows1 = _table(out1)
        if comments0 != comments1:
            reasons.append("comment lines")
        if header0 != header1 or len(rows0) != len(rows1):
            reasons.append(f"table {len(rows0)} -> {len(rows1)} rows")
        else:
            rows += len(rows0)
            for row0, row1 in zip(rows0, rows1):
                for name, cell0, cell1 in zip(header0, row0, row1):
                    columns.setdefault(name, Column()).add(cell0, cell1)
        if reasons:
            differing.append(f"{shlex.join(argv)}: {'; '.join(reasons)}")
    return columns, rows, differing


def report(columns, rows, differing, calls) -> bool:
    """Print the per-column table and the differing calls; True when
    anything differs."""
    changed = {name: c for name, c in columns.items() if c.changed}
    print(f"{calls} calls, {rows} rows compared")
    if changed:
        print(f"{'column':<22} {'changed':>9} {'worst rel':>10} {'NA->num':>8} {'num->NA':>8}")
        for name, c in changed.items():
            print(f"{name:<22} {c.changed:>9} {c.worst:>10.3g} {c.to_number:>8} {c.to_na:>8}")
    else:
        print("no cell changed")
    print(f"{len(differing)} calls differ in exit code, stderr, comments or table shape")
    for line in differing:
        print(f"  {line}")
    return bool(changed or differing)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        return _worker(*argv[1:])
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", help="the source tree to compare against")
    parser.add_argument("new", help="the source tree to compare")
    parser.add_argument("--workload", help="a workload of benchmarks/workloads.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--call", action="append", default=[],
                        help="a CLI command to run instead of a workload (repeatable)")
    args = parser.parse_args(argv)
    if bool(args.workload) == bool(args.call):
        parser.error("give either --workload or --call")
    with tempfile.TemporaryDirectory() as directory:
        if args.workload:
            workloads = _workloads()
            inputs = workloads.make_inputs(args.workload, args.seed)
            calls = [list(call.argv) for call in workloads.write_inputs(inputs, directory)]
        else:
            calls = [shlex.split(command) for command in args.call]
        old, new = run_trees([args.old, args.new], calls, directory)
    return int(report(*compare(calls, old, new), len(calls)))


if __name__ == "__main__":
    sys.exit(main())
