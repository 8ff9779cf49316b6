#!/usr/bin/env python3
"""100 independent factoring trajectories for N = 35.

Each trajectory draws its own evolution times from a child seed of the master
seed, so the whole experiment is reproducible byte for byte.  Writes the
per-iteration mean/std table and the plot-ready long table, and prints how
many trajectories kept their fidelity monotone (all of them, if the
conditioning is implemented right).
"""

import os
import sys

from hoamp import FactoringConfig, run_factoring
from hoamp.factoring import STREAM_STATS
from hoamp.reporting import (summarize_trajectories, write_stats_long_csv,
                             write_stats_summary_csv)
from hoamp.rng import SplitMix64

N = 35
SAMPLES = 100
SEED = 0


def main() -> int:
    master = SplitMix64(SEED)
    reports = []
    for i in range(SAMPLES):
        config = FactoringConfig(N=N, seed=master.derive(STREAM_STATS + i),
                                 L_max=25, stop_fidelity=0.999)
        reports.append(run_factoring(config))

    monotone = 0
    for rep in reports:
        fids = [r.fidelity for r in rep.records]
        monotone += all(b >= a for a, b in zip(fids, fids[1:]))
    print(f"{monotone}/{SAMPLES} trajectories with monotone fidelity")
    print(f"iterations to stop: min {min(len(r.records) for r in reports)}, "
          f"max {max(len(r.records) for r in reports)}")

    here = os.path.dirname(os.path.abspath(__file__))
    summary = summarize_trajectories(reports)
    s_path = os.path.join(here, "stats_n35_summary.csv")
    l_path = os.path.join(here, "stats_n35_trajectories.csv")
    meta = {"command": "scripts/stats_n35.py", "N": N, "seed": SEED,
            "samples": SAMPLES}
    write_stats_summary_csv(s_path, summary, meta)
    write_stats_long_csv(l_path, reports, meta)
    print(f"wrote {s_path}\nwrote {l_path}")
    return 0 if monotone == SAMPLES else 1


if __name__ == "__main__":
    sys.exit(main())
