"""Workload definitions: the inputs each run receives, and the output checks.

A workload turns the benchmark seed into a sequence of runs.  Run ``i`` gets
its own CLI ``--seed`` (and, for search, its own marked set) drawn from a
generator keyed by the workload name, the benchmark seed and ``i``, so the
same seed always gives the same inputs.

Only ``factor-bins`` is large: the binned layout starts at 2^22 trial pairs.
The other workloads are sized so that one run takes about 0.2-0.5 s on the
reference box, so that an invocation averages over many of them (the timing
reason is given in run.py).

Factoring runs use a fixed iteration count (``--stop-fidelity 1.0``) so that
every seed does the same amount of work: with the default stop rule the count
depends on the seed (11 to 12 iterations at N = 205,193), which would swamp
run-to-run timing differences.  The fidelity reached is still reported, as
``solution_mass``.

This module imports nothing from ``hoamp``: expected answers are computed
independently of the program under test.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

NAMES = ("factor-bins", "factor-explicit", "search-128k", "solve-grid")

# full-size parameters; "tiny" ones are for the smoke tests
_FACTOR = {
    "factor-bins": {"full": (205_193, 449, 457, 14), "tiny": (35, 5, 7, 6)},
    "factor-explicit": {"full": (899, 29, 31, 12), "tiny": (35, 5, 7, 6)},
}
_SEARCH = {"full": (131_072, 64), "tiny": (1024, 8)}
_SOLVE = {"full": (40, 10), "tiny": (7, 4)}


def factoring_pairs(N: int) -> int:
    """Trial pairs for N: n in [3, ceil(sqrt N)], m in [ceil(sqrt(N+1)), ceil(N/3)]."""
    n_hi = math.isqrt(N - 1) + 1
    m_lo, m_hi = math.isqrt(N) + 1, -(-N // 3)
    return (n_hi - 3 + 1) * (m_hi - m_lo + 1)


def solve_system(b: int) -> dict:
    """x + y <= b, x*y >= b^2/8 over 0 <= x, y <= b."""
    bound = b * b / 8
    return {
        "variables": [{"name": "x", "bound": b}, {"name": "y", "bound": b}],
        "constraints": [
            {"expr": "x + y", "relation": "<=", "bound": b},
            {"expr": "x*y", "relation": ">=",
             "bound": int(bound) if bound.is_integer() else bound},
        ],
    }


def feasible_grid(b: int) -> list:
    """Sorted [x, y] pairs satisfying solve_system(b), by numpy over the grid."""
    x, y = np.meshgrid(np.arange(b + 1), np.arange(b + 1), indexing="ij")
    ok = (x + y <= b) & (8 * x * y >= b * b)
    return [[int(i), int(j)] for i, j in zip(x[ok], y[ok])]


def _rng(name: str, seed: int, run: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{run}")


def make_run(name: str, seed: int, run: int, size: str, work_dir: str) -> dict:
    """Spec of run `run`: CLI arguments (without --out-dir) and what to expect."""
    rng = _rng(name, seed, run)
    cli_seed = rng.randrange(1 << 31)
    if name in _FACTOR:
        N, p, q, l_max = _FACTOR[name][size]
        return {
            "kind": "factor", "N": N, "expect": [p, q],
            "tuples": factoring_pairs(N),
            "argv": ["factor", "--n", str(N), "--seed", str(cli_seed),
                     "--l-max", str(l_max), "--stop-fidelity", "1.0"],
        }
    if name == "search-128k":
        n, marked = _SEARCH[size]
        indices = sorted(rng.sample(range(n), marked))
        return {
            "kind": "search", "expect": indices, "tuples": n,
            "argv": ["search", "--n", str(n), "--seed", str(cli_seed),
                     "--solutions", ",".join(map(str, indices))],
        }
    if name == "solve-grid":
        b, l_max = _SOLVE[size]
        path = os.path.join(work_dir, f"system_b{b}.json")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                json.dump(solve_system(b), fh)
        return {
            "kind": "solve", "b": b, "tuples": (b + 1) ** 2,
            "argv": ["solve", "--system", path, "--mode", "max",
                     "--l-max", str(l_max), "--seed", str(cli_seed)],
        }
    raise ValueError(f"unknown workload {name!r}")


def check_report(spec: dict, report: dict) -> tuple:
    """(ok, solution_mass, iterations, detail) for one JSON report."""
    records = report.get("records") or []
    iterations = len(records)
    kind = spec["kind"]
    if kind == "factor":
        mass = float(report["final_fidelity"])
        got = report.get("sampled_factors")
        ok = got == spec["expect"]
        detail = f"sampled {got}, expected {spec['expect']}, fidelity {mass:.6f}"
    elif kind == "search":
        mass = float(records[-1]["solution_mass"]) if records else 0.0
        got = [int(n) for n, _ in report.get("solutions", [])]
        ok = got == spec["expect"]
        detail = f"{len(got)} items reported, {len(spec['expect'])} marked"
    else:
        mass = float(records[-1]["solution_mass"]) if records else 0.0
        got = sorted([int(v) for v in s] for s, _ in report.get("solutions", []))
        want = feasible_grid(spec["b"])
        ok = got == want and report.get("solution_count") == len(want)
        detail = f"{len(got)} solutions reported, {len(want)} feasible"
    ok = ok and iterations > 0 and mass > 0.0
    return ok, mass, iterations, detail
