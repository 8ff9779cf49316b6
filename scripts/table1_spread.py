#!/usr/bin/env python3
"""Spread of the Table 1 trajectory over the rounding intervals of its times.

Table 1 prints each evolution time with three decimals, so the times behind it
lie anywhere in [t - 5e-4, t + 5e-4).  For each seed this re-runs the
N = 1,030,189 trajectory with every time drawn uniformly from its interval
(the draw of tests/test_acceptance.py), prints Pr(E_l) and F_l per row and the
rows the acceptance test would reject, then the per-row mean and standard
deviation of Pr and ln F over all seeds.  Each run streams the replay in
~13-15 s and ~52 MiB on 2 vCPUs.

    PYTHONPATH=src python scripts/table1_spread.py --seeds 1-63
    PYTHONPATH=src python scripts/table1_spread.py --seeds 0,64-83
    PYTHONPATH=src python scripts/table1_spread.py --seeds 0 --alpha 1.9
    PYTHONPATH=src python scripts/table1_spread.py --verbatim
"""

import argparse
import math
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from hoamp.factoring import replay_table1  # noqa: E402
from test_acceptance import rounding_interval_run, rows_outside_table1  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=parse_seeds, default=[],
                    help="SplitMix64 seeds of the draws, e.g. 1-63 or 0,64-83")
    ap.add_argument("--alpha", type=float, default=2.0, help="marker |alpha|")
    ap.add_argument("--verbatim", action="store_true",
                    help="also run the printed times as exact values")
    args = ap.parse_args()

    runs = [(f"seed {s}", rounding_interval_run(s, args.alpha)) for s in args.seeds]
    if args.verbatim:
        runs.append(("verbatim", replay_table1()))
    for name, report in runs:
        print(f"{name}: rows outside {rows_outside_table1(report) or 'none'}")
        for rec in report.records:
            print(f"  l={rec.l:2d}  Pr={rec.pr_E:.6f}  F={rec.fidelity:.6e}")
        sys.stdout.flush()

    if len(args.seeds) > 1:
        drawn = [report.records for name, report in runs if name != "verbatim"]
        print(f"\nover {len(drawn)} draws:  l  mean Pr  sd Pr   mean ln F  sd ln F")
        for rows in zip(*drawn):
            pr = [r.pr_E for r in rows]
            lnf = [math.log(r.fidelity) for r in rows]
            print(f"{rows[0].l:>24d}  {statistics.fmean(pr):.4f}  "
                  f"{statistics.stdev(pr):.2g}  {statistics.fmean(lnf):9.4f}  "
                  f"{statistics.stdev(lnf):.2g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
