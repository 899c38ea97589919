#!/usr/bin/env python3
"""tunnelclock benchmark: seeded CLI workloads, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) through ``tunnelclock.cli.main`` in
this process: one client, one thread, each call starting when the last
returned. The call list of one pass is drawn from the seed and repeats
in whole passes until S seconds of calls have run. The first pass warms
up and is not timed; each of its outputs is checked (verify.py) after
its call returned, and later outputs must be byte-identical to it. At
least four timed passes follow.

--trace 0 prints the end-to-end metrics, --trace 1 alternates untraced
and traced passes and prints the per-layer metrics (tracing.py). The
last line of standard output is one JSON object; the lines before it
repeat the metrics for people, with the machine record. A full record
is written to .bench_out/.
"""

from __future__ import annotations

import os

# One process, one thread: keep numpy's BLAS from starting worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, make_inputs, write_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"
SETUP_REPEATS = 5
# Each call's time is the 85th percentile of its times over the timed
# passes, of which there are at least this many.
MIN_PASSES = 4
CALL_QUANTILE = 0.85
SPEED_PROBE_LOOPS = 300_000


@dataclass(frozen=True)
class Outcome:
    """What one cli.main call did: exit code, exception name, stdout, wall time."""

    rc: int | None
    error: str | None
    stdout: str
    seconds: float

    @property
    def signature(self) -> tuple:
        digest = hashlib.blake2b(self.stdout.encode("utf-8"), digest_size=16).digest()
        return self.rc, self.error, digest


def invoke(argv) -> Outcome:
    """Call tunnelclock.cli.main(argv) with stdout and stderr captured."""
    from tunnelclock import cli

    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        # argparse rejects bad arguments with SystemExit(2).
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raw traceback is a failed call, not a crash
        error = type(exc).__name__
    return Outcome(rc, error, out.getvalue(), time.perf_counter() - start)


def failure_reason(argv, outcome: Outcome) -> str | None:
    """None for a call that succeeded with a correct output."""
    import verify

    if outcome.error is not None:
        return f"raised {outcome.error}"
    if outcome.rc != 0:
        return f"exit {outcome.rc}"
    try:
        return verify.failure(argv, outcome.stdout)
    except Exception as exc:  # an output the checks cannot parse is wrong
        return f"check:unparsable ({type(exc).__name__})"


@dataclass
class PassResult:
    seconds: list[float]
    reasons: list[str | None]
    mismatches: int
    bytes_out: int


def run_pass(calls, checked: list, first_call_id: int = 0, tracer=None) -> PassResult:
    """Run every call once.

    checked[i] is (signature, reason) of call i in the first pass. While
    checked is shorter than calls, each new output is checked after its
    call has been timed and appended; later outputs that differ from the
    first count as failed.
    """
    result = PassResult([], [], 0, 0)
    for index, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = first_call_id + index
        outcome = invoke(call.argv)
        if index == len(checked):
            checked.append((outcome.signature, failure_reason(call.argv, outcome)))
        signature, reason = checked[index]
        if outcome.signature != signature:
            result.mismatches += 1
            reason = "output differs from the checked pass"
        result.seconds.append(outcome.seconds)
        result.reasons.append(reason)
        result.bytes_out += len(outcome.stdout.encode("utf-8"))
    return result


def speed_probe() -> float:
    """Iterations per second of a fixed pure-Python loop (context only)."""
    start = time.perf_counter()
    total = 0
    for i in range(SPEED_PROBE_LOOPS):
        total += i * i % 7
    return SPEED_PROBE_LOOPS / (time.perf_counter() - start)


def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def set_up(workload: str, seed: int, directory: str):
    """Import the program, then generate and write the seeded inputs."""
    import tunnelclock.cli  # noqa: F401

    shutil.rmtree(directory, ignore_errors=True)
    return write_inputs(make_inputs(workload, seed), directory)


def setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes, from spawn to inputs written.

    time.monotonic is one system-wide clock on Linux, so the child's
    timestamp can be compared with the parent's.
    """
    samples = []
    for repeat in range(SETUP_REPEATS):
        directory = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-probe{repeat}")
        command = [sys.executable, __file__, "--setup-probe", directory,
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", "0"]
        start = time.monotonic()
        try:
            done = subprocess.run(command, check=True, capture_output=True, text=True)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples


def failed_calls(passes: list[PassResult]) -> int:
    """Calls of the pass that failed in any of the passes.

    Every pass repeats the same calls, so a call is one operation however
    many passes ran it; counting it once keeps attempted and failed the
    same on a seed whatever the machine's speed.
    """
    return sum(any(r is not None for r in reasons)
               for reasons in zip(*(p.reasons for p in passes)))


def percentile(values: list[float], fraction: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(calls, passes: list[PassResult], setup: list[float]) -> dict:
    # A shared machine alternates between its usual speed and bursts up
    # to 1.4x faster that last tens of seconds. A high percentile of a
    # call's times reports the usual speed unless bursts cover most of a
    # run: over ten seeds the 85th spread 0.05-0.12 across runs, the
    # 75th 0.05-0.14 and the median 0.14-0.26.
    seconds = [percentile(times, CALL_QUANTILE) for times in zip(*(p.seconds for p in passes))]
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": sum(call.items for call in calls) / sum(seconds),
        "call_p50_ms": 1e3 * percentile(seconds, 0.5),
        "call_p90_ms": 1e3 * percentile(seconds, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed_calls(passes) / len(calls),
    }


def per_layer(totals: list[dict], traced: list[PassResult], untraced: list[PassResult]) -> dict:
    """Per traced pass: counts from the first, self times averaged. Holds
    every layer function's calls, errors and self_s; BENCHMARK.json names
    the ones reported."""
    n = len(totals)
    first = totals[0]
    metrics = {}
    for name in first["calls"]:
        metrics[f"{name}.calls"] = first["calls"][name]
        metrics[f"{name}.errors"] = first["errors"][name]
        metrics[f"{name}.self_s"] = sum(t["self_s"][name] for t in totals) / n
    clock_calls = first["calls"]["clocktimes.clock_times"]
    metrics["clocktimes.solves_per_call"] = (
        first["solves_in_clock_times"] / clock_calls if clock_calls else 0.0)
    metrics["scattering.solve.regions"] = first["solve_regions"]
    metrics["rotor.read_pointer.grid_cells"] = first["grid_cells"]
    metrics["cli.bytes_out"] = traced[0].bytes_out
    metrics["tracing.overhead_s"] = (
        statistics.fmean(sum(p.seconds) for p in traced)
        - statistics.fmean(sum(p.seconds) for p in untraced))
    return metrics


def counts_repeat(totals: list[dict]) -> bool:
    keys = ("calls", "errors", "solves_in_clock_times", "solve_regions", "grid_cells")
    return all(t[k] == totals[0][k] for t in totals for k in keys)


def measure(args, calls):
    """Whole passes until --seconds of calls have run, the warm-up included.

    The first pass is the warm-up: it fills the program's caches and
    lazy imports, and each of its outputs is checked. Its times are not
    used, and no check runs while a tracer is on. With --trace 0 at least
    MIN_PASSES timed passes follow; with --trace 1 traced passes alternate
    with untraced ones. Returns the warm-up, the untraced passes, the
    traced passes and their tracers.
    """
    from tracing import Tracer

    checked: list = []
    warm_up = run_pass(calls, checked)
    elapsed = sum(warm_up.seconds)
    passes, traced, tracers = [], [], []
    while True:
        if args.trace:
            tracer = Tracer()
            with tracer:
                traced.append(run_pass(calls, checked, len(calls) * len(tracers), tracer))
            tracers.append(tracer)
            elapsed += sum(traced[-1].seconds)
        passes.append(run_pass(calls, checked))
        elapsed += sum(passes[-1].seconds)
        if elapsed >= args.seconds and (args.trace or len(passes) >= MIN_PASSES):
            return warm_up, passes, traced, tracers


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of calls, warm-up pass included "
                             "(whole passes, at least four timed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        set_up(args.workload, args.seed, args.setup_probe)
        print(time.monotonic())
        return 0
    if not (SRC / "tunnelclock" / "cli.py").is_file():
        print(f"benchmark: no program source at {SRC / 'tunnelclock'}", file=sys.stderr)
        return 2

    probe_before = speed_probe()
    setup = setup_seconds(args)
    directory = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}")
    try:
        calls = set_up(args.workload, args.seed, directory)
        import tunnelclock

        if Path(tunnelclock.__file__).resolve().parent != SRC / "tunnelclock":
            print(f"benchmark: imported {tunnelclock.__file__}, not the checkout's",
                  file=sys.stderr)
            return 2
        warm_up, passes, traced, tracers = measure(args, calls)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    probe_after = speed_probe()

    totals = [tracer.totals() for tracer in tracers]
    timed = passes + traced
    mismatches = sum(p.mismatches for p in timed)
    correct = mismatches == 0 and counts_repeat(totals)
    attempted = len(calls)
    failed = failed_calls([warm_up, *timed])
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    measured = per_layer(totals, traced, passes) if args.trace else end_to_end(calls, passes, setup)
    metrics = {m["name"]: measured[m["name"]] for m in spec}
    units = {m["name"]: m["unit"] for m in spec}

    reasons: dict[str, int] = {}
    for r in warm_up.reasons:
        if r is not None:
            reasons[r] = reasons.get(r, 0) + 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_record(),
        "speed_probe_loops_per_s": {"before": probe_before, "after": probe_after},
        "setup_s_samples": setup,
        "calls_per_pass": len(calls),
        "items_per_pass": sum(call.items for call in calls),
        "timed_passes": len(passes),
        "traced_passes": len(traced),
        "percentile_samples": len(calls),
        "warm_up_seconds": sum(warm_up.seconds),
        "pass_seconds": [sum(p.seconds) for p in passes],
        "traced_pass_seconds": [sum(p.seconds) for p in traced],
        "call_seconds": [p.seconds for p in passes],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures_per_pass_by_reason": reasons,
        "mismatches": mismatches,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-trace{args.trace}")
    for index, tracer in enumerate(tracers):
        tracer.write(f"{stem}-spans{index}.csv.gz")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    machine = record["machine"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(calls)} calls per pass, 1 warm-up + {len(passes)} untraced + "
          f"{len(traced)} traced passes; percentiles over {len(calls)} per-call times")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_ratio':40s} {record['failed_ratio']:>16.6g} 1 "
          f"({failed}/{attempted}; per pass by reason: {reasons or 'none'})")
    print(f"  machine: nproc={machine['nproc']} cpu={machine['cpu_model']} "
          f"python={machine['python']} numpy={machine['numpy']}")
    print(f"  speed probe (context only): {probe_before:.4g} loops/s before, "
          f"{probe_after:.4g} after; record {stem}.json")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
