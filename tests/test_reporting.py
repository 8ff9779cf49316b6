"""Serialization: float formatting, CSV/JSON layout, byte-stable output."""

import json
import math

import pytest

from hoamp.factoring import FactoringConfig, run_factoring, replay_table1
from hoamp.reporting import (fmt_float, report_to_dict, summarize_trajectories,
                             to_json_text, write_csv, write_iteration_csv,
                             write_json, write_stats_long_csv,
                             write_stats_summary_csv)
from hoamp.rng import SplitMix64


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


def test_report_round_trip(tmp_path):
    report = run_factoring(FactoringConfig(N=35, seed=1))
    d = report_to_dict(report)
    text = to_json_text(d)
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
    write_json(p1, report_to_dict(report))
    write_json(p2, report_to_dict(
        run_factoring(FactoringConfig(N=143, seed=3))))
    assert p1.read_bytes() == p2.read_bytes()
