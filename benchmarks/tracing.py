"""Per-layer spans recorded from outside the program.

``Tracer`` wraps the public functions of each layer in every namespace of
the ``tunnelclock`` package that bound them, so names bound by
``from ... import`` (``cli.clock_times``, ``rotor.perturb``) and names
looked up as module attributes (``scattering.solve``,
``closedform.times``) are both caught. Leaving the ``with`` block puts
every original back.

Each span holds its id, its parent's id (0 at a CLI call's root), the
id of the CLI call it belongs to, the layer function, start, end and
whether it raised. Spans stay in compact arrays in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import sys
import time
from array import array
from collections import defaultdict

# (module, function) of every layer boundary, in the order reported.
LAYER_FUNCTIONS = (
    ("potentials", "perturb"),
    ("scattering", "solve"),
    ("scattering", "dwell_time"),
    ("clocktimes", "clock_times"),
    ("closedform", "times"),
    ("closedform", "perturbed_amplitude"),
    ("closedform", "near_resonance"),
    ("rotor", "measurement_simulation"),
    ("rotor", "read_pointer"),
    ("checks", "decomposition_suite"),
    ("cli", "main"),
    ("cli", "build_parser"),
    ("cli", "load_potential_file"),
)
NAMES = tuple(f"{module}.{function}" for module, function in LAYER_FUNCTIONS)
_SOLVE = NAMES.index("scattering.solve")
_CLOCK_TIMES = NAMES.index("clocktimes.clock_times")
_READ_POINTER = NAMES.index("rotor.read_pointer")


def _argument(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    """Context manager that records a span for every layer call."""

    def __init__(self) -> None:
        self.call_id = 0
        # Computed work counts, taken from the arguments at the boundary.
        self.solve_regions = 0
        self.grid_cells = 0
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.span_id = array("q")
        self.parent = array("q")
        self.call = array("q")
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")

    def __enter__(self) -> "Tracer":
        modules = [module for name, module in sorted(sys.modules.items())
                   if name == "tunnelclock" or name.startswith("tunnelclock.")]
        try:
            for index, (module_name, function) in enumerate(LAYER_FUNCTIONS):
                home = importlib.import_module(f"tunnelclock.{module_name}")
                original = getattr(home, function)
                wrapper = self._wrap(index, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _count(self, index: int, args, kwargs) -> None:
        if index == _SOLVE:
            self.solve_regions += len(_argument(args, kwargs, "potential").heights) + 2
        elif index == _READ_POINTER:
            self.grid_cells += 16 * _argument(args, kwargs, "rotor").N ** 2

    def _wrap(self, index: int, function):
        stack, ids, clock = self._stack, self._ids, time.perf_counter
        counted = index in (_SOLVE, _READ_POINTER)

        def wrapper(*args, **kwargs):
            span = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span)
            if counted:
                self._count(index, args, kwargs)
            error = 0
            start = clock()
            try:
                return function(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                end = clock()
                stack.pop()
                self.span_id.append(span)
                self.parent.append(parent)
                self.call.append(self.call_id)
                self.name.append(index)
                self.start.append(start)
                self.end.append(end)
                self.error.append(error)

        wrapper.__wrapped__ = function
        return wrapper

    def totals(self) -> dict:
        """Calls, errors and self time per layer function, plus the number
        of solve spans that have a clock_times span among their ancestors.

        Self time is a span's duration minus the durations of its direct
        children, which never overlap because the program is one thread.
        """
        child_time: dict[int, float] = defaultdict(float)
        parent_of, name_of = {}, {}
        for span, parent, name, start, end in zip(
                self.span_id, self.parent, self.name, self.start, self.end):
            parent_of[span] = parent
            name_of[span] = name
            if parent:
                child_time[parent] += end - start
        calls = [0] * len(NAMES)
        errors = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        solves_in_clock_times = 0
        for span, name, start, end, error in zip(
                self.span_id, self.name, self.start, self.end, self.error):
            calls[name] += 1
            errors[name] += error
            self_s[name] += (end - start) - child_time.get(span, 0.0)
            if name == _SOLVE:
                ancestor = parent_of[span]
                while ancestor and name_of[ancestor] != _CLOCK_TIMES:
                    ancestor = parent_of[ancestor]
                solves_in_clock_times += bool(ancestor)
        return {
            "calls": dict(zip(NAMES, calls)),
            "errors": dict(zip(NAMES, errors)),
            "self_s": dict(zip(NAMES, self_s)),
            "solves_in_clock_times": solves_in_clock_times,
            "solve_regions": self.solve_regions,
            "grid_cells": self.grid_cells,
        }

    def write(self, path: str) -> None:
        """All spans as gzipped CSV; times in seconds from the first span."""
        origin = min(self.start, default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,call,name,start_s,end_s,error\n")
            for span, parent, call, name, start, end, error in zip(
                    self.span_id, self.parent, self.call, self.name,
                    self.start, self.end, self.error):
                fh.write(f"{span},{parent},{call},{NAMES[name]},"
                         f"{start - origin:.9f},{end - origin:.9f},{error}\n")
