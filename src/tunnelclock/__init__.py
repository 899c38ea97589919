"""Tunneling times for piecewise-constant potentials.

Clock times from overlap integrals of the stationary states, dwell-time
integrals, exact symmetric double-barrier expressions with opaque and
wide-barrier asymptotics, and a discrete N-level clock whose pointer
records the transit through a region.
"""

from .checks import (
    InstanceResult,
    RandomInstance,
    SuiteResult,
    decomposition_suite,
    random_scattering_instance,
)
from .clocktimes import (
    PROB_FLOOR,
    ClockTimes,
    clock_times,
)
from .closedform import (
    NEAR_RESONANCE_CUTOFF,
    RESONANCE_DENOMINATOR_CUTOFF,
    DoubleBarrierGrid,
    DoubleBarrierParams,
    DoubleBarrierTimes,
    asymptotic_agreement,
    grid,
    near_resonance,
    opaque_limit_gap,
    perturbed_amplitude,
    resonance_proximity,
    times,
)
from .errors import (
    CouplingTooStrongError,
    CouplingWarning,
    DegenerateEnergyError,
    InvalidParameterError,
    InvalidPerturbationError,
    OpaqueUnderflowError,
    TunnelClockError,
    UndefinedReadingError,
)
from .potentials import (
    NATURAL_UNITS,
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
    double_barrier,
    evaluate,
    free_potential,
    perturb,
    reflected,
)
from .rotor import (
    COUPLING_WARNING_FRACTION,
    ClockRotor,
    ClockState,
    MeasurementResult,
    PointerReading,
    basis_state,
    evolve,
    measurement_series,
    measurement_simulation,
    read_pointer,
    time_expectation,
)
from .scattering import (
    RegionWave,
    ScatteringSolution,
    dwell_time,
    overlap_integrals,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "InstanceResult",
    "RandomInstance",
    "SuiteResult",
    "decomposition_suite",
    "random_scattering_instance",
    "PROB_FLOOR",
    "ClockTimes",
    "clock_times",
    "NEAR_RESONANCE_CUTOFF",
    "RESONANCE_DENOMINATOR_CUTOFF",
    "DoubleBarrierGrid",
    "DoubleBarrierParams",
    "DoubleBarrierTimes",
    "asymptotic_agreement",
    "grid",
    "near_resonance",
    "opaque_limit_gap",
    "perturbed_amplitude",
    "resonance_proximity",
    "times",
    "CouplingTooStrongError",
    "CouplingWarning",
    "DegenerateEnergyError",
    "InvalidParameterError",
    "InvalidPerturbationError",
    "OpaqueUnderflowError",
    "TunnelClockError",
    "UndefinedReadingError",
    "NATURAL_UNITS",
    "ClockRegion",
    "PiecewiseConstantPotential",
    "UnitsConfig",
    "double_barrier",
    "evaluate",
    "free_potential",
    "perturb",
    "reflected",
    "COUPLING_WARNING_FRACTION",
    "ClockRotor",
    "ClockState",
    "MeasurementResult",
    "PointerReading",
    "basis_state",
    "evolve",
    "measurement_series",
    "measurement_simulation",
    "read_pointer",
    "time_expectation",
    "RegionWave",
    "ScatteringSolution",
    "dwell_time",
    "overlap_integrals",
    "solve",
    "__version__",
]
