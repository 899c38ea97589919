"""Piecewise-constant potentials, clock regions, and unit conventions.

Regions follow a half-open convention: the value at a breakpoint is the
value of the region on its right. All types are immutable value types.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import InvalidParameterError

__all__ = [
    "UnitsConfig",
    "NATURAL_UNITS",
    "ClockRegion",
    "PiecewiseConstantPotential",
    "double_barrier",
    "perturb",
]


@dataclass(frozen=True)
class UnitsConfig:
    """Particle mass and hbar. The defaults are natural units."""

    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.mass, (int, float)) and math.isfinite(self.mass) and self.mass > 0):
            raise InvalidParameterError("mass must be positive and finite")
        if not (isinstance(self.hbar, (int, float)) and math.isfinite(self.hbar) and self.hbar > 0):
            raise InvalidParameterError("hbar must be positive and finite")


NATURAL_UNITS = UnitsConfig()


@dataclass(frozen=True)
class ClockRegion:
    """Finite interval (z1, z2) on which the clock projector equals one.

    The interval may extend beyond the support of the potential it is
    paired with; only z1 < z2 is required.
    """

    z1: float
    z2: float

    def __post_init__(self):
        if not (math.isfinite(self.z1) and math.isfinite(self.z2)):
            raise InvalidParameterError("clock region endpoints must be finite")
        if not self.z1 < self.z2:
            raise InvalidParameterError(
                f"clock region needs z1 < z2, got ({self.z1}, {self.z2})"
            )


def _check_finite(values) -> None:
    if not all(map(math.isfinite, values)):
        raise InvalidParameterError("breakpoints and heights must be finite")


@dataclass(frozen=True)
class PiecewiseConstantPotential:
    """Constant heights between strictly increasing breakpoints, zero outside.

    ``heights[i]`` applies on ``[breakpoints[i], breakpoints[i+1])`` and the
    potential vanishes identically outside the first and last breakpoint.
    A single breakpoint with no heights represents the free potential.
    """

    breakpoints: tuple[float, ...]
    heights: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(z) for z in self.breakpoints)
        hs = tuple(float(v) for v in self.heights)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "heights", hs)
        if len(bp) == 0:
            raise InvalidParameterError("at least one breakpoint is required")
        _check_finite(bp + hs)
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise InvalidParameterError("breakpoints must be strictly increasing")
        if len(hs) != len(bp) - 1:
            raise InvalidParameterError(
                f"{len(bp)} breakpoints require {len(bp) - 1} heights, got {len(hs)}"
            )

    @property
    def support(self) -> tuple[float, float]:
        """Interval outside which the potential is identically zero."""
        return self.breakpoints[0], self.breakpoints[-1]

    def __call__(self, z: float) -> float:
        """Potential value at z under the half-open region convention."""
        bp = self.breakpoints
        if z < bp[0] or z >= bp[-1]:
            return 0.0
        return self.heights[bisect.bisect_right(bp, z) - 1]


def double_barrier(v0: float, a: float, d: float) -> PiecewiseConstantPotential:
    """Two barriers of height v0 and width a separated by a gap of width d.

    The left barrier starts at z = 0, so the support is [0, 2a + d].
    """
    if not (v0 > 0 and a > 0 and d > 0):
        raise InvalidParameterError(
            f"double barrier needs v0, a, d all positive, got ({v0}, {a}, {d})"
        )
    return PiecewiseConstantPotential((0.0, a, a + d, 2 * a + d), (v0, 0.0, v0))


def _clock_cuts(
    potential: PiecewiseConstantPotential, region: ClockRegion
) -> tuple[tuple[float, ...], list[float], list[bool]]:
    """Breakpoints of perturb's result, the unshifted height of each of its
    intervals, and whether the interval lies inside the clock region.

    The cut list contains both region endpoints, so every interval lies
    entirely inside or entirely outside the region.
    """
    cuts = tuple(sorted(set(potential.breakpoints) | {region.z1, region.z2}))
    bases, inside = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        bases.append(potential(lo))
        inside.append(region.z1 <= lo and hi <= region.z2)
    return cuts, bases, inside


def perturb(
    potential: PiecewiseConstantPotential,
    region: ClockRegion,
    strength: float,
) -> PiecewiseConstantPotential:
    """Add ``strength`` to the potential on the clock region.

    The result's breakpoints are the sorted union of the original ones with
    the region endpoints; coincident breakpoints merge exactly (no fuzzy
    tolerance), which removes zero-width regions. The region may extend
    beyond the original support, in which case new regions of height
    ``strength`` appear there.
    """
    if not math.isfinite(strength):
        raise InvalidParameterError("perturbation strength must be finite")
    cuts, bases, inside = _clock_cuts(potential, region)
    heights = tuple(base + strength if hit else base for base, hit in zip(bases, inside))
    return PiecewiseConstantPotential(cuts, heights)
