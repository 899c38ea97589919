#!/usr/bin/env python3
"""Convergence study: pointer readings against the exact clock time.

Runs `tunnelclock clock-sim` on the bundled double barrier over a series of
halved couplings and prints the reading error per row of its CSV. The error
shrinks about quadratically in the coupling because the symmetric level
spectrum cancels the first-order back-action term. The reference is the
CSV's t_perturbative, the transmission clock time from overlap integrals.
A row whose coupling is too strong for the energy margin is reported as such.
"""

import argparse
import contextlib
import csv
import io
import sys
import warnings

from tunnelclock.cli import main as cli_main
from tunnelclock.errors import CouplingWarning


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

    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("ignore", CouplingWarning)
        # every flag of this script is a clock-sim flag of the same name
        code = cli_main(["clock-sim", *(f"--{k}={v!r}" for k, v in vars(args).items())])
    if code != 0:
        return code
    rows = list(csv.DictReader(line for line in out.getvalue().splitlines()
                               if not line.startswith("#")))
    reference = float(rows[0]["t_perturbative"].replace("NA", "nan"))
    print(f"overlap-integral clock time: {reference:.12g}")
    print(f"{'omega':>14} {'tau':>12} {'t_read':>16} {'abs error':>12} {'ratio':>7}")
    previous = None
    for row in rows:
        omega, tau = float(row["omega"]), float(row["tau"])
        if row["t_read"] == "NA":
            print(f"{omega:14.6e} {tau:12.6g} coupling too strong")
            continue
        t_read = float(row["t_read"])
        error = abs(t_read - reference)
        ratio = "" if previous is None else f"{previous / error:7.2f}"
        print(f"{omega:14.6e} {tau:12.6g} {t_read:16.10g} {error:12.4e} {ratio}")
        previous = error
    return 0


if __name__ == "__main__":
    sys.exit(main())
