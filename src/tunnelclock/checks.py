"""Randomized cross-checks of the dwell-time decomposition.

Each instance draws an asymmetric multi-region potential, a clock region
(possibly sticking out into the free exterior or sitting inside an
interior gap), and a tunneling energy, then compares the independently
integrated dwell time against the probability-weighted channel clock
times. Both sides are exact integrals, so the residual should sit at
rounding level, orders of magnitude below the 1e-6 acceptance line, for
every instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .clocktimes import clock_times
from .errors import InvalidParameterError
from .potentials import (
    NATURAL_UNITS,
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
)

__all__ = [
    "RandomInstance",
    "InstanceResult",
    "SuiteResult",
    "random_scattering_instance",
    "decomposition_suite",
]


@dataclass(frozen=True)
class RandomInstance:
    potential: PiecewiseConstantPotential
    region: ClockRegion
    energy: float


@dataclass(frozen=True)
class InstanceResult:
    instance: RandomInstance
    residual: float
    unitarity_defect: float


@dataclass(frozen=True)
class SuiteResult:
    results: list[InstanceResult]

    @property
    def max_residual(self) -> float:
        return max(r.residual for r in self.results)

    @property
    def max_unitarity_defect(self) -> float:
        return max(r.unitarity_defect for r in self.results)


def random_scattering_instance(rng: random.Random) -> RandomInstance:
    """Draw one asymmetric potential + clock region + tunneling energy.

    2 to 5 regions with heights in [0.004, 0.03] (about a quarter of the
    interior regions are free gaps), widths in [0.8, 12], random origin.
    The energy sits between 25% and 85% of the tallest barrier, kept at
    least 5% of that height away from every region height so no local
    wavenumber comes near zero.
    """
    while True:
        n_regions = rng.randint(2, 5)
        heights = []
        for i in range(n_regions):
            if 0 < i < n_regions - 1 and rng.random() < 0.25:
                heights.append(0.0)
            else:
                heights.append(rng.uniform(0.004, 0.03))
        origin = rng.uniform(-5.0, 5.0)
        breakpoints = [origin]
        for _ in range(n_regions):
            breakpoints.append(breakpoints[-1] + rng.uniform(0.8, 12.0))
        potential = PiecewiseConstantPotential(
            tuple(breakpoints), tuple(heights)
        )

        vmax = max(heights)
        energy = rng.uniform(0.25, 0.85) * vmax
        margin = 0.05 * vmax
        if any(abs(energy - h) < margin for h in heights):
            continue

        lo, hi = potential.support
        # Regions may straddle the support edges by a few units.
        z1 = rng.uniform(lo - 4.0, hi - 0.5)
        z2 = rng.uniform(z1 + 0.5, hi + 4.0)
        return RandomInstance(
            potential=potential,
            region=ClockRegion(z1, z2),
            energy=energy,
        )


def decomposition_suite(
    count: int,
    seed: int,
    units: UnitsConfig = NATURAL_UNITS,
) -> SuiteResult:
    """Run count randomized instances; deterministic for a given seed."""
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    results = []
    for _ in range(count):
        inst = random_scattering_instance(rng)
        ct = clock_times(inst.potential, inst.region, inst.energy, units)
        defect = abs(ct.transmission_prob + ct.reflection_prob - 1.0)
        results.append(
            InstanceResult(
                instance=inst,
                residual=ct.decomposition_residual,
                unitarity_defect=defect,
            )
        )
    return SuiteResult(results=results)
