#!/usr/bin/env python3
"""Emit the bundled double-barrier spacing sweeps (both panels) as CSV.

Writes panel_a.csv (barrier width 10) and panel_b.csv (width 30) plus a
small comparison summary to stdout: where the between-gap time saturates,
where the resonance peaks sit, and how the two widths compare off-peak.
"""

import argparse
import os
import sys

import numpy as np

from tunnelclock.cli import main as cli_main
from tunnelclock.closedform import NEAR_RESONANCE_CUTOFF, grid


def summarize(panel, a, ds):
    g = grid(0.018, a, np.array(ds), 0.01)
    near = g.proximity < NEAR_RESONANCE_CUTOFF
    peaks = [d for d, flag in zip(ds, near) if flag]
    plateau = [(d, float(t)) for d, t, flag in zip(ds, g.t_between, near) if not flag]
    lo = min(plateau, key=lambda p: p[0])
    hi = max(plateau, key=lambda p: p[0])
    print(f"panel {panel} (a={a:g}): {len(peaks)} flagged peak points")
    print(f"  t_between {lo[1]:.6g} at d={lo[0]:.4g}  ->  {hi[1]:.6g} at d={hi[0]:.4g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=".", help="where the CSVs go")
    parser.add_argument("--count", type=int, default=200)
    args = parser.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    ds = [1.0 + i * 99.0 / (args.count - 1) for i in range(args.count)]
    for panel, a in (("a", 10.0), ("b", 30.0)):
        path = os.path.join(args.out_dir, f"panel_{panel}.csv")
        code = cli_main(
            ["fig1", "--panel", panel, "--count", str(args.count), "--out", path]
        )
        if code != 0:
            return code
        print(f"wrote {path}")
        summarize(panel, a, ds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
