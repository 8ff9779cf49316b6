#!/usr/bin/env python3
"""Constraint-solver demo.

Two small systems over x, y:

* inequalities  x + y <= 6,  x*y >= 5,  x^2 + y >= 7   (bounds 7), read from
  example_system.json beside this script
* equality      x*y = 12,    x + y <= 8                (bounds 12)

Each constraint's multiplier is the best overlap with any of its accepted
values.  Both results are cross-checked against brute-force enumeration.
"""

import json
import os
import sys

from hoamp import ConstraintSystem, feasible_set, run_solver

INEQ_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "example_system.json")
EQ = {
    "variables": [{"name": "x", "bound": 12}, {"name": "y", "bound": 12}],
    "constraints": [
        {"expr": "x*y", "relation": "=", "bound": 12},
        {"expr": "x + y", "relation": "<=", "bound": 8},
    ],
}


def run_one(label, doc, alpha, l_max):
    system = ConstraintSystem.from_json(doc)
    expected = feasible_set(system)
    report = run_solver(system, alpha_schedule=(alpha,), seed=3, L_max=l_max, stop_mass=0.999)
    found = {t for t, _ in report.solutions}
    mass = report.records[-1].solution_mass
    ok = found == expected and report.sampled_tuple in expected
    print(f"{label:12s} alpha={alpha}: "
          f"{len(report.records):3d} iterations, solution mass {mass:.6f}, "
          f"sampled {report.sampled_tuple}  [{'ok' if ok else 'MISMATCH'}]")
    print(f"             feasible: {sorted(expected)}")
    return ok


def main() -> int:
    with open(INEQ_PATH) as fh:
        ineq = json.load(fh)
    print(f"inequality system: {INEQ_PATH} (also: hoamp solve --system {INEQ_PATH})\n")

    ok = run_one("inequality", ineq, 3.0, 120)
    ok &= run_one("equality", EQ, 2.0, 40)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
