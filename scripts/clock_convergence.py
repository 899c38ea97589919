#!/usr/bin/env python3
"""Convergence study: pointer readings against the exact clock time.

Runs the discrete-clock measurement on the bundled double barrier over a
series of halved couplings (rotor.measurement_series, the routine behind
`tunnelclock clock-sim`) and prints the reading error per row. The error
shrinks about quadratically in the coupling because the symmetric level
spectrum cancels the first-order back-action term. The reference is the
transmission clock time of clock_times, from overlap integrals. A row whose
coupling is too strong for the energy margin is reported as such.
"""

import argparse
import sys
import warnings

from tunnelclock.clocktimes import clock_times
from tunnelclock.errors import CouplingWarning
from tunnelclock.potentials import ClockRegion, double_barrier
from tunnelclock.rotor import ClockRotor, measurement_series


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=21, help="clock levels (odd)")
    parser.add_argument("--tau", type=float, default=25000.0,
                        help="starting clock resolution")
    parser.add_argument("--halvings", type=int, default=4,
                        help="coupling halvings after the first row")
    parser.add_argument("--E", type=float, default=0.01)
    parser.add_argument("--V0", type=float, default=0.018)
    parser.add_argument("--a", type=float, default=10.0)
    parser.add_argument("--d", type=float, default=10.0)
    args = parser.parse_args(argv)

    potential = double_barrier(args.V0, args.a, args.d)
    region = ClockRegion(0.0, 2.0 * args.a + args.d)
    reference = clock_times(potential, region, args.E).transmitted
    print(f"overlap-integral clock time: {reference:.12g}")
    print(f"{'omega':>14} {'tau':>12} {'t_read':>16} {'abs error':>12} {'ratio':>7}")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CouplingWarning)
        rows = measurement_series(
            potential, region, args.E, ClockRotor(args.N, args.tau), args.halvings
        )
    previous = None
    for rotor, result in rows:
        if result is None:
            print(f"{rotor.omega:14.6e} {rotor.tau:12.6g} coupling too strong")
            continue
        error = abs(result.transmitted.t_read - reference)
        ratio = "" if previous is None else f"{previous / error:7.2f}"
        print(
            f"{rotor.omega:14.6e} {rotor.tau:12.6g} "
            f"{result.transmitted.t_read:16.10g} {error:12.4e} {ratio}"
        )
        previous = error
    return 0


if __name__ == "__main__":
    sys.exit(main())
