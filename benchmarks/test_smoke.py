"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest benchmarks -q

Every workload path runs end to end (factor N = 35, search n = 1024, solve
b = 7) and must emit exactly the metrics BENCHMARK.json names, with their
units.  These tests live with the benchmark, not in the program's suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert SPEC["paths"] == ["benchmarks"]


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in names} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.NAMES:
        a = workloads.make_run(name, 7, 2, "tiny", str(tmp_path))
        b = workloads.make_run(name, 7, 2, "tiny", str(tmp_path))
        c = workloads.make_run(name, 8, 2, "tiny", str(tmp_path))
        assert a == b and a["argv"] != c["argv"]


def test_checks_reject_wrong_answers(tmp_path):
    factor = workloads.make_run("factor-bins", 0, 0, "tiny", str(tmp_path))
    good = {"records": [{}], "final_fidelity": 0.999, "sampled_factors": [5, 7]}
    assert workloads.check_report(factor, good)[0]
    assert not workloads.check_report(factor, dict(good, sampled_factors=[3, 12]))[0]

    search = workloads.make_run("search-128k", 0, 0, "tiny", str(tmp_path))
    items = [[n, 1.0 / len(search["expect"])] for n in search["expect"]]
    report = {"records": [{"solution_mass": 1.0}], "solutions": items}
    assert workloads.check_report(search, report)[0]
    assert not workloads.check_report(search, dict(report, solutions=items[1:]))[0]

    solve = workloads.make_run("solve-grid", 0, 0, "tiny", str(tmp_path))
    feasible = workloads.feasible_grid(7)
    sols = [[s, 0.1] for s in feasible]
    report = {"records": [{"solution_mass": 0.3}], "solutions": sols,
              "solution_count": len(sols)}
    assert workloads.check_report(solve, report)[0]
    assert not workloads.check_report(
        solve, dict(report, solutions=sols[1:], solution_count=len(sols) - 1))[0]


def test_feasible_grid_matches_brute_force():
    for b in (7, 40):
        want = [[x, y] for x in range(b + 1) for y in range(b + 1)
                if x + y <= b and 8 * x * y >= b * b]
        assert workloads.feasible_grid(b) == want
    assert len(workloads.feasible_grid(40)) == 228


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "factor-bins", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
