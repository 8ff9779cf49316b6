"""scripts/bench_pair.py: the per-metric summary of alternated pairs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bench_pair.py")
_spec = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def _runs(values: dict, failed: int = 0) -> dict:
    """A side's runs: per seed, the metrics of one result line."""
    return {"failed": failed,
            "results": [(seed, {name: {"value": v, "unit": unit}
                                for name, (v, unit) in metrics.items()})
                        for seed, metrics in values.items()]}


def test_summarize_pairs_each_seed():
    parent = _runs({1: {"time_to_solution_s": (1.0, "s"), "solution_mass": (0.5, "fraction"),
                        "solver.angle_pairs": (0.0, "count"), "unlisted": (4.0, "x")},
                    2: {"time_to_solution_s": (2.0, "s"), "solution_mass": (0.5, "fraction"),
                        "solver.angle_pairs": (0.0, "count"), "unlisted": (4.0, "x")},
                    3: {"time_to_solution_s": (4.0, "s"), "solution_mass": (0.5, "fraction"),
                        "solver.angle_pairs": (0.0, "count"), "unlisted": (4.0, "x")},
                    # no change run for seed 4: not a pair
                    4: {"time_to_solution_s": (9.0, "s"), "solution_mass": (0.1, "fraction"),
                        "solver.angle_pairs": (0.0, "count"), "unlisted": (4.0, "x")}})
    change = _runs({1: {"time_to_solution_s": (0.5, "s"), "solution_mass": (0.5, "fraction"),
                        "solver.angle_pairs": (3.0, "count"), "unlisted": (2.0, "x")},
                    2: {"time_to_solution_s": (1.5, "s"), "solution_mass": (0.6, "fraction"),
                        "solver.angle_pairs": (0.0, "count"), "unlisted": (2.0, "x")},
                    3: {"time_to_solution_s": (5.0, "s"), "solution_mass": (0.4, "fraction"),
                        "solver.angle_pairs": (0.0, "count"), "unlisted": (2.0, "x")}},
                   failed=1)
    out = bench_pair.summarize({"parent": parent, "change": change})
    assert out["seeds"] == [1, 2, 3]
    assert out["failed"] == {"parent": 0, "change": 1}
    t = out["metrics"]["time_to_solution_s"]
    assert (t["parent"], t["change"], t["pairs"]) == (2.0, 1.5, 3)
    assert t["parent_runs"] == [1.0, 2.0, 4.0] and t["change_runs"] == [0.5, 1.5, 5.0]
    # ratios 0.5, 0.75, 1.25; lower is better, so the change won seeds 1 and 2
    assert t["pair_ratio_median"] == 0.75 and t["change_wins"] == 2
    # higher is better: seed 1 is a tie, which counts for neither side
    m = out["metrics"]["solution_mass"]
    assert m["pair_ratio_median"] == pytest.approx(1.0) and m["change_wins"] == 1
    # a parent value of 0 gives no ratio; a metric BENCHMARK.json does not
    # list has no direction, so no win count
    assert out["metrics"]["solver.angle_pairs"]["pair_ratio_median"] is None
    assert out["metrics"]["solver.angle_pairs"]["change_wins"] == 0
    assert out["metrics"]["unlisted"]["pair_ratio_median"] == 0.5
    assert "change_wins" not in out["metrics"]["unlisted"]


def test_summarize_without_pairs():
    out = bench_pair.summarize({"parent": _runs({1: {"iterations": (3.0, "count")}}),
                                "change": _runs({}, failed=1)})
    assert out == {"seeds": [], "failed": {"parent": 0, "change": 1}, "metrics": {}}
