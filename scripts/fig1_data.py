#!/usr/bin/env python3
"""Emit the bundled double-barrier spacing sweeps (both panels) as CSV.

Writes panel_a.csv (barrier width 10) and panel_b.csv (width 30) plus a
small comparison summary to stdout, read back from the rows just written:
where the between-gap time saturates, where the resonance peaks sit, and
how the two widths compare off-peak.
"""

import argparse
import csv
import os
import sys

from tunnelclock.cli import FIG1_BARRIER_WIDTH, main as cli_main


def summarize(panel, a, path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    peaks = [row for row in rows if row["flag"] == "1"]
    plateau = [(float(row["d"]), float(row["t_between"])) for row in rows
               if row["flag"] == "0"]
    lo, hi = min(plateau), max(plateau)
    print(f"panel {panel} (a={a:g}): {len(peaks)} flagged peak points")
    print(f"  t_between {lo[1]:.6g} at d={lo[0]:.4g}  ->  {hi[1]:.6g} at d={hi[0]:.4g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=".", help="where the CSVs go")
    parser.add_argument("--count", type=int, default=200)
    args = parser.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    for panel, a in FIG1_BARRIER_WIDTH.items():
        path = os.path.join(args.out_dir, f"panel_{panel}.csv")
        code = cli_main(
            ["fig1", "--panel", panel, "--count", str(args.count), "--out", path]
        )
        if code != 0:
            return code
        print(f"wrote {path}")
        summarize(panel, a, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
