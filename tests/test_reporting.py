"""Serialization: float formatting, CSV/JSON layout, byte-stable output."""

import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from hoamp.cli import main
from hoamp.factoring import (TABLE1_TIMES, FactoringConfig, IterationRecord,
                             replay_table1, run_factoring, table1_comparison)
from hoamp.reporting import (fmt_float, summarize_trajectories, to_json_text,
                             write_csv, write_iteration_csv, write_json,
                             write_stats_long_csv, write_stats_summary_csv)
from hoamp.rng import SplitMix64
from hoamp.solver import SolverReport

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
GRID_B7 = {"variables": [{"name": "x", "bound": 7}, {"name": "y", "bound": 7}],
           "constraints": [{"expr": "x + y", "relation": "<=", "bound": 7},
                           {"expr": "x*y", "relation": ">=", "bound": 6.125}]}
# CLI runs whose JSON reports are pinned byte for byte under tests/data/
GOLDEN_RUNS = {
    "factor_899_seed4": ["factor", "--n", "899", "--seed", "4"],
    # 6 blocks: pins the block partition and the fsum of the block sums
    "factor_10403_seed2": ["factor", "--n", "10403", "--seed", "2"],
    "search_1024": ["search", "--n", "1024", "--solutions", "5,77,1000"],
    "solve_grid_b7": ["solve", "--system", "{grid}", "--l-max", "10", "--seed", "3"],
    "solve_example_system": ["solve", "--system",
                             os.path.join(ROOT, "scripts", "example_system.json")],
}


def test_fmt_float_round_trips():
    for x in (0.1, 1 / 3, 2.883e-9, math.pi, 1.0, 6.046, 1e300, -0.0):
        assert float(fmt_float(x)) == x


def test_fmt_float_plain_integers():
    assert fmt_float(1.0) == "1"
    assert fmt_float(0.5) == "0.5"


def test_write_csv_layout(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ("a", "b"), [[1, 0.5], [2, 'x,"y"']], {"seed": 7})
    text = p.read_text()
    lines = text.splitlines()
    assert lines[0] == "# seed: 7"
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5"
    assert lines[3] == '2,"x,""y"""'


def test_write_json_leaves_no_file_when_serializing_fails(tmp_path):
    p = tmp_path / "r.json"
    with pytest.raises(ValueError, match="non-finite"):
        write_json(p, {"x": float("nan")})
    assert not p.exists()


def test_json_writer_valid_and_pinned_floats(tmp_path):
    doc = {"x": 0.1, "items": [1, 2.5, "s"], "flag": True, "none": None}
    text = to_json_text(doc)
    assert json.loads(text) == doc
    assert "0.10000000000000001" in text        # 17 significant digits
    p = tmp_path / "d.json"
    write_json(p, doc)
    assert p.read_text() == text


def test_json_writer_escapes_control_characters():
    doc = {"x +\ty": "a\tb\r\x01\"\\\n", "plain": "é/ü"}
    text = to_json_text(doc)
    assert json.loads(text) == doc
    assert "\t" not in text and '"é/ü"' in text     # non-ASCII stays as it is


def test_json_writer_rejects_non_finite():
    with pytest.raises(ValueError):
        to_json_text({"x": float("inf")})


def _solver_report(solutions, records=()):
    return SolverReport(config={"mode": "max"}, seed=0, records=list(records),
                        solutions=solutions, sampled_tuple=(1, 3),
                        solution_count=len(solutions), estimated_iterations=5)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_json_report_matches_golden_bytes(name, tmp_path):
    grid = tmp_path / "grid_b7.json"
    grid.write_text(json.dumps(GRID_B7))
    argv = [a.replace("{grid}", str(grid)) for a in GOLDEN_RUNS[name]]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out), "--format", "json"]) == 0
    (report,) = os.listdir(out)
    with open(os.path.join(DATA, name + ".json"), "rb") as fh:
        assert (out / report).read_bytes() == fh.read()


def test_replay_document_matches_golden_bytes(tmp_path):
    """The replay-table1 shape: a dict of comparison-row dataclasses and a config."""
    report = run_factoring(FactoringConfig(N=899, alpha_schedule=(2.0,),
                                           times=TABLE1_TIMES[:4], L_max=4,
                                           stop_fidelity=1.0))
    p = tmp_path / "replay.json"
    write_json(p, {"rows": table1_comparison(report), "config": report.config})
    with open(os.path.join(DATA, "replay_rows_899.json"), "rb") as fh:
        assert p.read_bytes() == fh.read()


def test_json_writer_memory_is_a_small_multiple_of_the_text():
    """100,000 solution rows: no deep copy of the report and no part per token."""
    report = _solver_report([((i, 2 * i + 1), 1.0 / (i + 3)) for i in range(100_000)])
    tracemalloc.start()
    try:
        text = to_json_text(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(text)["solutions"][7] == [[7, 15], 0.1]
    assert peak <= 3 * len(text)


def test_json_writer_reads_dataclasses_without_asdict(monkeypatch):
    report = run_factoring(FactoringConfig(N=35, seed=1))
    expected = to_json_text(report)

    def no_asdict(obj, **kwargs):
        raise AssertionError("asdict called")

    monkeypatch.setattr(dataclasses, "asdict", no_asdict)
    assert to_json_text(report) == expected
    assert json.loads(to_json_text(_solver_report([((1, 2), 0.5)])))["solutions"] == [
        [[1, 2], 0.5]]


@pytest.mark.parametrize("report", [
    _solver_report([((1, 2), 0.5), ((2, 1), float("nan"))]),
    _solver_report([((1, 2), 0.5)], [IterationRecord(1, 0.5, 2.0, 0.25, 0.25, 1.0,
                                                     float("inf"))]),
], ids=["nan-solution-mass", "inf-record-field"])
def test_non_finite_nested_value_raises_and_leaves_no_file(report, tmp_path):
    p = tmp_path / "r.json"
    with pytest.raises(ValueError, match="non-finite"):
        write_json(p, report)
    assert not p.exists()


def test_numpy_scalars_and_empty_containers():
    plain = {"xs": [1, -2, 3], "fs": [0.1, 2.0, -1e-300], "row": [(4, 5), 0.25]}
    numpy = {"xs": [np.int64(1), np.int64(-2), np.int64(3)],
             "fs": [np.float64(0.1), np.float64(2.0), np.float64(-1e-300)],
             "row": [(np.int64(4), np.int64(5)), np.float64(0.25)]}
    assert to_json_text(numpy) == to_json_text(plain)
    assert to_json_text(np.array([1, 2])) == to_json_text([1, 2])
    assert to_json_text({"a": [], "b": {}, "c": ()}) == (
        '{\n  "a": [],\n  "b": {},\n  "c": []\n}\n')
    assert to_json_text([]) == "[]\n" and to_json_text({}) == "{}\n"


def test_report_round_trip(tmp_path):
    report = run_factoring(FactoringConfig(N=35, seed=1))
    text = to_json_text(report)
    back = json.loads(text)
    assert back["config"]["N"] == 35
    assert back["records"][0]["l"] == 1
    assert back["sampled_factors"] == [5, 7]
    p = tmp_path / "r.csv"
    write_iteration_csv(p, report, {"N": 35})
    lines = p.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",")[:4] == ["l", "t_l", "alpha_mag", "pr_E"]


def test_stats_summary(tmp_path):
    master = SplitMix64(0)
    reports = [run_factoring(FactoringConfig(N=35, seed=master.derive(2 + i),
                                             L_max=25, stop_fidelity=0.999))
               for i in range(5)]
    summary = summarize_trajectories(reports)
    assert summary.n_samples == 5
    assert len(summary.mean_pr) == len(summary.iterations)
    assert all(s >= 0.0 for s in summary.std_pr)
    with pytest.raises(ValueError):
        summarize_trajectories(reports[:1])
    s = tmp_path / "s.csv"
    l = tmp_path / "l.csv"
    write_stats_summary_csv(s, summary, {"seed": 0})
    write_stats_long_csv(l, reports, {"seed": 0})
    assert "mean_fidelity" in s.read_text()
    # long table: one row per (sample, iteration)
    data_rows = [x for x in l.read_text().splitlines()
                 if x and not x.startswith("#")][1:]
    assert len(data_rows) == sum(len(r.records) for r in reports)


def test_byte_identical_rewrites(tmp_path):
    report = run_factoring(FactoringConfig(N=143, seed=3))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, report)
    write_json(p2, run_factoring(FactoringConfig(N=143, seed=3)))
    assert p1.read_bytes() == p2.read_bytes()
