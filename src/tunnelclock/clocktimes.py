"""Clock times from overlap integrals of the stationary states.

The time a running clock accumulates while the particle occupies a region
equals minus hbar times the derivative of the scattered-wave phase with
respect to the strength of a constant potential shift applied over that
region, evaluated at zero shift. To first order in the shift, the
amplitudes change by

    dR/dV = -(i m / hbar^2 k) * integral of psi^2,
    dT/dV = -(i m / hbar^2 k) * integral of psi*chi,

where psi is the state incident from the left and chi the one incident
from the right (Sokolovski & Baskin, PRA 36, 4604 (1987)). One solve
gives psi, and scattering.overlap_integrals builds chi from it. Both
integrals are exact per-region antiderivatives, so t = -hbar Im(dA/dV / A)
needs no step size. The dwell time comes from the independent density
integral of |psi|^2, taken in the same walk, so the weighted-average
identity

    t_dwell = |T|^2 t_transmitted + |R|^2 t_reflected

is a genuine cross-check between two computations, never circular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import scattering
from .errors import InvalidParameterError
from .potentials import (
    NATURAL_UNITS,
    ClockRegion,
    PiecewiseConstantPotential,
    UnitsConfig,
)

__all__ = ["PROB_FLOOR", "ClockTimes", "clock_times"]

# Channels with probability below this are reported as undefined instead of
# taking the phase derivative of a vanishing amplitude.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class ClockTimes:
    """Channel clock times plus the independently integrated dwell time.

    transmitted/reflected are None when the channel probability is below
    PROB_FLOOR (the phase of a vanishing amplitude carries no time).
    decomposition_residual is |t_dwell - (P_T t_T + P_R t_R)| / |t_dwell|;
    a channel below the floor still enters through its weighted term
    P t = (m / hbar k) Re(integral * conj(amplitude)), which stays
    well defined however small the amplitude.
    """

    transmitted: float | None
    reflected: float | None
    dwell: float
    transmission_prob: float
    reflection_prob: float
    decomposition_residual: float


def clock_times(
    potential: PiecewiseConstantPotential,
    region: ClockRegion,
    energy: float,
    units: UnitsConfig = NATURAL_UNITS,
) -> ClockTimes:
    """Transmission/reflection clock times and the dwell time over region.

    Raises what solve raises, and InvalidParameterError where the dwell
    time or a reported channel time is not finite.
    """
    psi = scattering.solve(potential, energy, units)
    trans_prob = abs(psi.transmission) ** 2
    refl_prob = abs(psi.reflection) ** 2
    density, psi2, psichi = scattering.overlap_integrals(psi, region)
    # -hbar Im(dA/dV / A) with dA/dV = -(i m / hbar^2 k) * integral.
    inverse_speed = units.mass / (units.hbar * psi.wavenumber)
    t_transmitted = t_reflected = None
    weighted = 0.0
    if trans_prob >= PROB_FLOOR:
        t_transmitted = inverse_speed * (psichi / psi.transmission).real
        weighted += trans_prob * t_transmitted
    else:
        weighted += inverse_speed * (psichi * psi.transmission.conjugate()).real
    if refl_prob >= PROB_FLOOR:
        t_reflected = inverse_speed * (psi2 / psi.reflection).real
        weighted += refl_prob * t_reflected
    else:
        weighted += inverse_speed * (psi2 * psi.reflection.conjugate()).real
    dwell = inverse_speed * density
    if not all(math.isfinite(t) for t in (t_transmitted, t_reflected, dwell) if t is not None):
        raise InvalidParameterError(
            f"clock times over ({region.z1}, {region.z2}) leave the float range"
            f" at E={energy}"
        )
    # A region in total shadow has zero dwell time; its residual is absolute.
    residual = abs(dwell - weighted) / abs(dwell) if dwell else abs(weighted)
    return ClockTimes(
        transmitted=t_transmitted,
        reflected=t_reflected,
        dwell=dwell,
        transmission_prob=trans_prob,
        reflection_prob=refl_prob,
        decomposition_residual=residual,
    )

