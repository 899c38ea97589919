"""Randomized decomposition suite: determinism and tolerance headroom."""

import random

import pytest

from tunnelclock.checks import (
    InstanceResult,
    RandomInstance,
    SuiteResult,
    decomposition_suite,
    random_scattering_instance,
)
from tunnelclock.potentials import PiecewiseConstantPotential


def test_suite_meets_tolerances():
    suite = decomposition_suite(count=150, seed=20240817)
    assert len(suite.results) == 150
    assert suite.max_residual <= 1e-6
    assert suite.max_unitarity_defect <= 1e-12
    assert all(isinstance(r, InstanceResult) for r in suite.results)


def test_suite_deterministic():
    a = decomposition_suite(count=25, seed=11)
    b = decomposition_suite(count=25, seed=11)
    assert [r.residual for r in a.results] == [r.residual for r in b.results]
    assert [r.instance.energy for r in a.results] == [
        r.instance.energy for r in b.results
    ]


def test_different_seeds_differ():
    a = decomposition_suite(count=5, seed=1)
    b = decomposition_suite(count=5, seed=2)
    assert [r.instance.energy for r in a.results] != [
        r.instance.energy for r in b.results
    ]


def test_instance_shape():
    rng = random.Random(99)
    counts = set()
    for _ in range(60):
        inst = random_scattering_instance(rng)
        assert isinstance(inst, RandomInstance)
        assert isinstance(inst.potential, PiecewiseConstantPotential)
        n = len(inst.potential.heights)
        counts.add(n)
        assert 2 <= n <= 5
        vmax = max(inst.potential.heights)
        assert 0.0 < inst.energy < vmax
        assert all(
            abs(inst.energy - h) >= 0.05 * vmax - 1e-15
            for h in inst.potential.heights
        )
        assert inst.region.z2 - inst.region.z1 >= 0.5
    assert len(counts) >= 3  # the draw actually varies the region count


def test_suite_result_properties():
    suite = decomposition_suite(count=3, seed=5)
    assert isinstance(suite, SuiteResult)
    assert suite.max_residual == max(r.residual for r in suite.results)
    assert suite.max_unitarity_defect == max(
        r.unitarity_defect for r in suite.results
    )
