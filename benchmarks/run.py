"""hoamp benchmark: end-to-end runs, or one traced run, of one workload.

    python3 benchmarks/run.py --workload factor-bins --seed 1 --seconds 27 --trace 0

With ``--trace 0`` this is a closed loop with one client: each run is a fresh
``python3 benchmarks/child.py run`` process that imports ``hoamp.cli``, makes
one ``hoamp.cli.main`` call and checks the report it wrote; the next run
starts when the previous one has ended, if it should end within ``--seconds``
(at least one run is made).
Before the loop, and after any run longer than a second, a few processes
only import ``hoamp.cli``, to measure set-up.  Each metric is one statistic
over the invocation's samples, named in END_TO_END and in the output.
With ``--trace 1`` a single traced process replays run 0 with spans around
every layer (see tracing.py) and reports the per-layer metrics.

Every run gets ``HOAMP_THREADS`` equal to the number of usable cores.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it name every
metric with its unit, sample count and spread, and record the environment.
Inputs come from ``--seed`` (see workloads.py); the program is run from
``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = os.path.join(ROOT, ".bench_work")

SETUP_PROBES = 8
DEADLINE_S = 170.0        # the whole invocation must end within 180 s

# end_to_end metric name -> (unit, statistic over the invocation's samples).
# The shared host runs interpreter-bound code up to 2x slower in phases that
# last seconds, so one run's wall time depends on the phases it met.  Short
# runs averaged over the whole window follow the host's mean speed, which
# drifts less than either the fastest run or the median of a bimodal sample.
# The harmonic mean of the rates is total work over total run time, to match.
# Solution mass depends on each run's seed, with a long upper tail: mean.
END_TO_END = {
    "time_to_solution_s": ("s", statistics.fmean),
    "tuple_iters_per_s": ("1/s", statistics.harmonic_mean),
    "peak_rss_mb": ("MiB", statistics.median),
    "solution_mass": ("fraction", statistics.fmean),
    "iterations": ("count", statistics.median),
    "setup_s": ("s", statistics.median),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def spawn(mode: str, spec: dict, env: dict, deadline: float):
    """Run one child process; its parsed result, or None if it failed."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, json.dumps(spec)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        print(f"{mode} process killed at the deadline", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - t_spawn
    return result


def _summary(name: str, values: list, unit: str, stat) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"  {name:44s} {stat(values):14.6g} {unit:9s} {stat.__name__:13s} "
            f"n={len(values):<3d} q1={q[0]:.6g} median={q[1]:.6g} q3={q[2]:.6g}")


def closed_loop(args, env: dict, work: str, deadline: float) -> dict:
    setups = []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            res = spawn("setup", {}, env, deadline)
            if res is not None:
                setups.append(res["setup_s"])

    spawn("setup", {}, env, deadline)          # warm-up: byte-compiles hoamp
    probe_setup(SETUP_PROBES)

    runs, attempted, failed = [], 0, 0
    t0 = time.monotonic()
    longest = 0.0
    # start a run only if it should end within --seconds, judged by the longest so far
    while attempted == 0 or time.monotonic() - t0 + longest <= args.seconds:
        if time.monotonic() + longest >= deadline:
            break
        started = time.monotonic()
        spec = workloads.make_run(args.workload, args.seed, attempted, args.size, work)
        spec["out_dir"] = os.path.join(work, f"run{attempted}")
        res = spawn("run", spec, env, deadline)
        took = time.monotonic() - started
        longest = max(longest, took)
        attempted += 1
        if res is None or not res["ok"]:
            failed += 1
            print(f"run {attempted - 1} failed: "
                  f"{res['detail'] if res else 'no result'}", file=sys.stderr)
        if res is not None:
            setups.append(res["setup_s"])
            if res["rc"] == 0:
                res["tuple_iters_per_s"] = spec["tuples"] * res["iterations"] / res["wall_s"]
                runs.append(res)
                print(f"run {attempted - 1}: {' '.join(spec['argv'][:3])} "
                      f"wall {res['wall_s']:.4f} s, peak {res['peak_rss_mb']:.1f} MiB, "
                      f"mass {res['solution_mass']:.6g}, {res['detail']}")
        if took > 1.0:
            # long runs leave few set-up samples: probe between them as well,
            # so that set-up is sampled across the window, not only at its start
            probe_setup(2)
    if not runs or not setups:
        raise SystemExit("no run produced a measurement")

    samples = {
        "time_to_solution_s": [r["wall_s"] for r in runs],
        "tuple_iters_per_s": [r["tuple_iters_per_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "solution_mass": [r["solution_mass"] for r in runs],
        "iterations": [float(r["iterations"]) for r in runs],
        "setup_s": setups,
    }
    print(f"end-to-end metrics over runs ({attempted} attempted):")
    for name, (unit, stat) in END_TO_END.items():
        print(_summary(name, samples[name], unit, stat))
    print(f"  {'fail_frac':44s} {failed / attempted:14.6g} {'fraction':9s} n={attempted}")
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": stat(samples[name]), "unit": unit}
                    for name, (unit, stat) in END_TO_END.items()},
    }


def traced(args, env: dict, work: str, deadline: float) -> dict:
    spec = workloads.make_run(args.workload, args.seed, 0, args.size, work)
    spec["out_dir"] = work
    res = spawn("trace", spec, env, deadline)
    if res is None or "metrics" not in res:
        raise SystemExit(f"traced run failed: {res['detail'] if res else 'no result'}")
    print(f"per-layer metrics, traced run 0 ({res['spans']} spans, untraced "
          f"{res['untraced_s']:.4f} s, traced {res['traced_s']:.4f} s; 0 = layer not called):")
    for name, m in res["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    if not res["ok"]:
        print(f"traced run failed its check: {res['detail']}", file=sys.stderr)
    return {"correct": bool(res["ok"]), "attempted": 1, "failed": 0 if res["ok"] else 1,
            "metrics": res["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test inputs that finish in a second")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hoamp", "cli.py")):
        print(f"no hoamp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    threads = nproc()
    env = dict(os.environ, HOAMP_THREADS=str(threads))
    print(f"workload={args.workload} size={args.size} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} HOAMP_THREADS={threads} "
          f"nproc={threads} numpy={np.__version__} python={sys.version.split()[0]}")
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        run = traced if args.trace else closed_loop
        result = run(args, env, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass                  # another invocation is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
