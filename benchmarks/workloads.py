"""Seeded inputs for the benchmark workloads.

``make_inputs(workload, seed)`` is pure: it returns the CLI calls of one
pass and the text of every input file, so the same seed always gives
byte-identical inputs. ``write_inputs`` puts the files into a work
directory and resolves the file arguments of each call.

Draws are stratified: each quantity that sets the cost of a call (row
count, region count, clock size, halvings, energy class) takes one value
from each of n equal slices of its range, in seeded order. Every seed
therefore gives the same mix of cheap and expensive calls, and seeds
differ in the physical parameters, not in the amount of work.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("sweep-closedform", "stack-generic", "rotor-clocksim")

# An argument that starts with FILE_MARK names a file of Inputs.files; it
# is replaced by the file's path when the inputs are written.
FILE_MARK = "@"


@dataclass(frozen=True)
class Call:
    """One ``tunnelclock.cli.main`` call and the items it attempts."""

    argv: tuple[str, ...]
    items: int


@dataclass(frozen=True)
class Inputs:
    calls: tuple[Call, ...]
    files: tuple[tuple[str, str], ...]


def _num(value: float) -> str:
    # repr round-trips, so the program sees exactly the drawn value.
    return repr(float(value))


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """One draw from each of n equal slices of [lo, hi), in random order."""
    fractions = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(fractions)
    if log:
        return [lo * (hi / lo) ** u for u in fractions]
    return [lo + (hi - lo) * u for u in fractions]


def _shuffled(rng: random.Random, counts: dict) -> list:
    """Each key repeated count times, in random order."""
    labels = [key for key, count in counts.items() for _ in range(count)]
    rng.shuffle(labels)
    return labels


def _potential_text(breakpoints: list[float], heights: list[float]) -> str:
    lines = [f"breakpoint {_num(breakpoints[0])}"]
    for height, z in zip(heights, breakpoints[1:]):
        lines.append(f"height {_num(height)}")
        lines.append(f"breakpoint {_num(z)}")
    return "\n".join(lines) + "\n"


def _stack(rng: random.Random, n_regions: int) -> tuple[list[float], list[float]]:
    """Barriers, free gaps and wells; at least one barrier."""
    heights = []
    for _ in range(n_regions):
        u = rng.random()
        if u < 0.6:
            heights.append(rng.uniform(0.004, 0.03))
        elif u < 0.8:
            heights.append(0.0)
        else:
            heights.append(-rng.uniform(0.002, 0.02))
    if max(heights) <= 0.0:
        heights[rng.randrange(n_regions)] = rng.uniform(0.004, 0.03)
    breakpoints = [rng.uniform(-5.0, 5.0)]
    for _ in range(n_regions):
        breakpoints.append(breakpoints[-1] + rng.uniform(0.5, 8.0))
    return breakpoints, heights


def _double_barrier_flags(rng: random.Random, a_max: float = 30.0, d_max: float = 100.0) -> dict:
    v0 = rng.uniform(0.01, 0.03)
    return {
        "V0": v0,
        "a": rng.uniform(2.0, a_max),
        "d": rng.uniform(1.0, d_max),
        "E": v0 * rng.uniform(0.2, 0.9),
    }


def _flags(values: dict) -> list[str]:
    argv = []
    for name, value in values.items():
        argv += [f"--{name}", _num(value)]
    return argv


# sweep-closedform: the paper's Figure 1 traffic. One call in four is a
# single-point closed-form evaluation, where argument parsing dominates;
# the rest are fig1 panels and sweeps of 500-5000 rows, where the closed
# forms and row formatting dominate.
SWEEP_POINT_CALLS = 26
SWEEP_RANGE_KINDS = ("fig1-a", "fig1-b", "d", "a", "E", "V0")
SWEEP_CALLS_PER_KIND = 13
SWEEP_ROWS = (500, 5000)


def _sweep_closedform(rng: random.Random) -> tuple[list[Call], list]:
    kinds = _shuffled(rng, {kind: SWEEP_CALLS_PER_KIND for kind in SWEEP_RANGE_KINDS})
    kinds += ["point"] * SWEEP_POINT_CALLS
    rng.shuffle(kinds)
    rows = iter(_strata(rng, len(kinds) - SWEEP_POINT_CALLS, *SWEEP_ROWS, log=True))
    calls = []
    for kind in kinds:
        if kind == "point":
            calls.append(Call(("times", *_flags(_double_barrier_flags(rng))), 1))
            continue
        count = int(next(rows))
        if kind.startswith("fig1"):
            argv = ("fig1", "--panel", kind[-1], "--count", str(count))
            calls.append(Call(argv, count))
            continue
        fixed = _double_barrier_flags(rng)
        v0, e = fixed["V0"], fixed["E"]
        # The E and V0 ranges cross the tunnelling regime's edges, so
        # some rows come back as flagged NA rows.
        start, stop = {
            "d": lambda: (rng.uniform(0.5, 10.0), rng.uniform(30.0, 160.0)),
            "a": lambda: (rng.uniform(0.5, 5.0), rng.uniform(10.0, 40.0)),
            "E": lambda: (v0 * rng.uniform(-0.1, 0.3), v0 * rng.uniform(0.9, 1.3)),
            "V0": lambda: (e * rng.uniform(0.6, 1.05), e * rng.uniform(2.0, 5.0)),
        }[kind]()
        del fixed[kind]
        argv = ("sweep", "--axis", kind, "--start", _num(start), "--stop", _num(stop),
                "--count", str(count), *_flags(fixed))
        calls.append(Call(argv, count))
    return calls, []


# stack-generic: generic piecewise-constant stacks through times
# --potential, where solve, perturb, the dwell integral and the
# finite-difference derivative do the work. Inputs that hit known
# defects are kept: the failures they cause are the honest baseline.
STACK_TIMES_CALLS = {"small": 228, "medium": 114, "large": 38}
STACK_REGIONS = {"small": (2, 5), "medium": (20, 60), "large": (200, 400)}
STACK_CHECK_CALLS = 20
STACK_CHECK_COUNT = (20, 50)
STACK_TUNNELLING_SHARE = 0.75


def _stack_generic(rng: random.Random) -> tuple[list[Call], list]:
    sizes = _shuffled(rng, STACK_TIMES_CALLS)
    n_times = len(sizes)
    n_tunnel = round(STACK_TUNNELLING_SHARE * n_times)
    energy_class = _shuffled(rng, {"tunnel": n_tunnel, "above": n_times - n_tunnel})
    counts = {size: iter(_strata(rng, n, STACK_REGIONS[size][0], STACK_REGIONS[size][1] + 1))
              for size, n in STACK_TIMES_CALLS.items()}
    calls, files = [], []
    for index, (size, energy_kind) in enumerate(zip(sizes, energy_class)):
        n_regions = int(next(counts[size]))
        breakpoints, heights = _stack(rng, n_regions)
        vmax = max(heights)
        if energy_kind == "tunnel":
            energy = rng.uniform(0.25, 0.85) * vmax
        else:
            energy = rng.uniform(1.05, 2.0) * vmax
        lo, hi = breakpoints[0], breakpoints[-1]
        # Clock regions may stick out past the support.
        z1 = rng.uniform(lo - 4.0, hi - 0.5)
        z2 = rng.uniform(z1 + 0.5, hi + 4.0)
        name = f"stack-{index:04d}.txt"
        files.append((name, _potential_text(breakpoints, heights)))
        argv = ("times", "--potential", FILE_MARK + name,
                *_flags({"z1": z1, "z2": z2, "E": energy}))
        calls.append(Call(argv, 1))
    for count in _strata(rng, STACK_CHECK_CALLS, STACK_CHECK_COUNT[0], STACK_CHECK_COUNT[1] + 1):
        count = int(count)
        argv = ("check", "--count", str(count), "--seed", str(rng.randrange(2**31)))
        calls.append(Call(argv, count))
    rng.shuffle(calls)
    return calls, files


# rotor-clocksim: the only workload that runs the rotor. Small clocks
# dominate the count; the few large ones dominate time and memory. The
# --potential stacks go to N <= ROTOR_STACK_MAX_N, so the calls around
# the 90th percentile of call time (N=201 with two halvings) are all
# double barriers of equal cost.
ROTOR_CALLS_PER_N = {21: 41, 51: 22, 101: 17, 201: 16, 401: 4}
ROTOR_MAX_HALVINGS = 3
ROTOR_STACK_CALLS = 20
ROTOR_STACK_MAX_N = 101
ROTOR_STACK_REGIONS = (3, 8)
ROTOR_SHIFT_FRACTION = (0.01, 0.2)


def _coupling_margin(heights: list[float], energy: float) -> float:
    """The energy and every clearance V - E of regions above it."""
    return min([energy] + [h - energy for h in heights if h > energy])


def _rotor_clocksim(rng: random.Random) -> tuple[list[Call], list]:
    sizes = []
    for n, count in ROTOR_CALLS_PER_N.items():
        halvings = [h % (ROTOR_MAX_HALVINGS + 1) for h in range(count)]
        rng.shuffle(halvings)
        sizes += [(n, h) for h in halvings]
    rng.shuffle(sizes)
    small = [i for i, (n, _) in enumerate(sizes) if n <= ROTOR_STACK_MAX_N]
    stacks = set(rng.sample(small, ROTOR_STACK_CALLS))
    sources = ["stack" if i in stacks else "double" for i in range(len(sizes))]
    fractions = _strata(rng, len(sizes), *ROTOR_SHIFT_FRACTION)
    calls, files = [], []
    for index, ((n, halvings), source, fraction) in enumerate(zip(sizes, sources, fractions)):
        if source == "stack":
            breakpoints, heights = _stack(
                rng, rng.randint(*ROTOR_STACK_REGIONS))
            energy = rng.uniform(0.25, 0.85) * max(heights)
            name = f"rotor-{index:04d}.txt"
            files.append((name, _potential_text(breakpoints, heights)))
            potential_flags = ["--potential", FILE_MARK + name, "--E", _num(energy)]
        else:
            flags = _double_barrier_flags(rng, a_max=15.0, d_max=30.0)
            heights = [flags["V0"], 0.0, flags["V0"]]
            energy = flags["E"]
            potential_flags = _flags(flags)
        # The first row's largest level shift j*hbar*omega, with
        # omega = 2*pi/(N*tau), is this fraction of the energy margin.
        j = (n - 1) // 2
        tau = j * math.tau / (n * fraction * _coupling_margin(heights, energy))
        argv = ("clock-sim", "--N", str(n), "--tau", _num(tau),
                "--halvings", str(halvings), *potential_flags)
        calls.append(Call(argv, halvings + 1))
    return calls, files


_GENERATORS = {
    "sweep-closedform": _sweep_closedform,
    "stack-generic": _stack_generic,
    "rotor-clocksim": _rotor_clocksim,
}


def make_inputs(workload: str, seed: int) -> Inputs:
    """The calls of one pass and the input files, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    calls, files = _GENERATORS[workload](rng)
    return Inputs(tuple(calls), tuple(files))


def write_inputs(inputs: Inputs, directory: str) -> list[Call]:
    """Write the input files into directory; return the calls with their
    file arguments replaced by paths."""
    os.makedirs(directory, exist_ok=True)
    for name, text in inputs.files:
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return [
        Call(tuple(os.path.join(directory, arg[1:]) if arg.startswith(FILE_MARK) else arg
                   for arg in call.argv), call.items)
        for call in inputs.calls
    ]
