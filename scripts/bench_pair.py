#!/usr/bin/env python3
"""Paired benchmark runs: a parent commit against the working tree.

    python3 scripts/bench_pair.py --out BENCH_<n>.json
    python3 scripts/bench_pair.py --parent-rev HEAD~1 --workloads factor-bins \\
        --out BENCH_<n>.json

For every workload and seed (default 1-10), ``benchmarks/run.py`` runs once
on the parent and once on the working tree, one right after the other;
which goes first alternates from pair to pair, so a host that drifts slower
or faster over the session does not favour either side.  Each tree runs its
own ``benchmarks/run.py`` against its own ``src/``, for the ``run_seconds``
that ``BENCHMARK.json`` fixes.  One more ``--trace 1`` pair per workload, on
the first seed, gives the per-layer metrics.  Then one parent/change pair
of ``hoamp replay-table1`` gives the replay's wall time and peak RSS, in the
``replay`` section; the replay's exit 1 (rows outside tolerance, by design)
counts as a completed run.

The parent is the commit ``--parent-rev`` (default ``HEAD``: the working
tree against its last commit), exported with ``git archive`` into a
temporary directory.  The output holds, per workload and metric, the median
parent value, the median change value and the pair count, with every pair's
values, the median per-pair change/parent ratio and the number of pairs the
change won; runs that failed or were not correct are counted per side.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# "lower" or "higher" per metric name
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
TRACED_PAIRS = 1        # --trace 1 pairs per workload, on the first seeds


def export_rev(rev: str, dest: str) -> None:
    """Write the files of commit `rev` of this repository into `dest`."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_bench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmarks/run.py invocation in `tree`: its result line, or None."""
    argv = [sys.executable, os.path.join(tree, "benchmarks", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed} in {tree} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


# runs `hoamp replay-table1` from the src/ given as argv[1] in a child process,
# and prints its exit code, wall time and peak RSS as one JSON line; a fresh
# wrapper per run, so ru_maxrss of its children is that one run's
_REPLAY_WRAPPER = """
import json, os, resource, subprocess, sys, tempfile, time
with tempfile.TemporaryDirectory() as out:
    t0 = time.perf_counter()
    rc = subprocess.run([sys.executable, "-m", "hoamp.cli", "replay-table1", "--out-dir", out],
                        env={**os.environ, "PYTHONPATH": sys.argv[1]},
                        stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps({"rc": rc, "wall_s": wall, "peak_rss_mb": peak}))
"""


def replay_runs(trees: dict) -> dict:
    """One parent/change pair of `hoamp replay-table1` runs: per side, the
    wall time and peak RSS of each completed run (exit 0, or 1 for rows
    outside tolerance), and how many failed."""
    out = {side: {"wall_s": [], "peak_rss_mb": [], "failed": 0} for side in trees}
    for side in ("parent", "change"):
        proc = subprocess.run([sys.executable, "-c", _REPLAY_WRAPPER,
                               os.path.join(trees[side], "src")],
                              capture_output=True, text=True)
        res = json.loads(proc.stdout) if proc.returncode == 0 else None
        if res is None or res["rc"] not in (0, 1):
            out[side]["failed"] += 1
            print(f"  replay {side} failed: {proc.stderr[-2000:]}", file=sys.stderr)
            continue
        out[side]["wall_s"].append(res["wall_s"])
        out[side]["peak_rss_mb"].append(res["peak_rss_mb"])
        print(f"  replay {side}: {res['wall_s']:.2f} s, {res['peak_rss_mb']:.0f} MiB",
              flush=True)
    return {side: {**runs, **{f"median_{k}": statistics.median(runs[k])
                              for k in ("wall_s", "peak_rss_mb") if runs[k]}}
            for side, runs in out.items()}


def pair_runs(trees: dict, workload: str, seeds: list, seconds: float, trace: int,
              flip: int) -> dict:
    """Alternating parent/change runs of one workload: per side, the result
    lines of its runs, and how many failed or were not correct."""
    out = {side: {"results": [], "failed": 0} for side in trees}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if (i + flip) % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_bench(trees[side], workload, seed, seconds, trace)
            if res is None or not res["correct"]:
                out[side]["failed"] += 1
            if res is not None:
                out[side]["results"].append((seed, res["metrics"]))
                name, m = next(iter(res["metrics"].items()))
                print(f"  {workload} seed {seed} {side}: {name} {m['value']:.6g}", flush=True)
    return out


def _paired(parent: list, change: list, better: str) -> dict:
    """Per-pair statistics of one metric: the median change/parent ratio over
    the pairs whose parent value is not 0 (None if there is none), and, for a
    metric with a known direction, how many pairs the change won (a tie
    counts for neither side)."""
    ratios = [c / p for p, c in zip(parent, change) if p != 0]
    out = {"pair_ratio_median": statistics.median(ratios) if ratios else None}
    if better is not None:
        sign = 1 if better == "higher" else -1
        out["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return out


def summarize(runs: dict) -> dict:
    """Per metric: unit, median parent and change values over the seeds both
    sides measured, the pair count, each pair's values and the per-pair
    statistics of _paired.  Within a pair the two runs are minutes apart at
    most, so the pair ratio does not carry the host's drift over the whole run
    the way the spread of either side's runs does."""
    by_seed = {side: dict(runs[side]["results"]) for side in runs}
    seeds = [s for s in by_seed["parent"] if s in by_seed["change"]]
    metrics = {}
    if seeds:
        for name, m in by_seed["parent"][seeds[0]].items():
            parent = [by_seed["parent"][s][name]["value"] for s in seeds]
            change = [by_seed["change"][s][name]["value"] for s in seeds]
            metrics[name] = {"unit": m["unit"], "parent": statistics.median(parent),
                             "change": statistics.median(change), "pairs": len(seeds),
                             "parent_runs": parent, "change_runs": change,
                             **_paired(parent, change, BETTER.get(name))}
    return {"seeds": seeds, "failed": {side: runs[side]["failed"] for side in runs},
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-rev", default="HEAD",
                        help="commit to export as the parent (default HEAD)")
    parser.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    seconds = float(BENCHMARK["run_seconds"])
    label = subprocess.run(["git", "-C", ROOT, "rev-parse", args.parent_rev],
                           check=True, capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent:
        export_rev(label, parent)
        trees = {"parent": parent, "change": ROOT}
        doc = {"parent": label, "seconds": seconds, "nproc": len(os.sched_getaffinity(0)),
               "python": sys.version.split()[0], "end_to_end": {}, "per_layer": {}}
        for w, workload in enumerate(args.workloads):
            print(f"{workload}: {len(args.seeds)} end-to-end pairs", flush=True)
            runs = pair_runs(trees, workload, args.seeds, seconds, 0, w)
            doc["end_to_end"][workload] = summarize(runs)
            runs = pair_runs(trees, workload, args.seeds[:TRACED_PAIRS], seconds, 1, w)
            doc["per_layer"][workload] = summarize(runs)
        print("replay-table1: 1 pair", flush=True)
        doc["replay"] = replay_runs(trees)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
