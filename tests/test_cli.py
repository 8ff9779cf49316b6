"""Command line behavior: subcommands, formats, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hoamp import __version__, cli, ensemble, errors, fockoracle
from hoamp.cli import main
from hoamp.constraints import ConstraintSystem
from hoamp.dynamics import KERNEL_BLOCK
from hoamp.factoring import (TABLE1_ROWS, TABLE1_TIME_GRID_NOTE, TABLE1_TIMES, FactoringConfig,
                             run_factoring)
from hoamp.reporting import REPLAY_HEADER
from hoamp.search import BlackBox, apply_black_box, initial_search_state
from hoamp.solver import uniform_state


def run(args):
    return main(args)


def test_factor_json(tmp_path, capsys):
    rc = run(["factor", "--n", "391", "--seed", "2", "--out-dir", str(tmp_path),
              "--format", "json"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "391 = 17 * 23" in out
    doc = json.loads((tmp_path / "factor_report.json").read_text())
    assert doc["config"]["N"] == 391
    assert doc["sampled_factors"] == [17, 23]


def test_factor_csv_stdout(tmp_path, capsys):
    rc = run(["factor", "--n", "35"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# generator: hoamp")
    assert "l,t_l,alpha_mag,pr_E" in out
    assert run(["factor", "--n", "35", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "factor_report.csv").read_text() == out


def test_factor_prime_exit_code(capsys):
    assert run(["factor", "--n", "37"]) == 4
    assert "no factor" in capsys.readouterr().err


def test_factor_bad_flags(capsys):
    assert run(["factor"]) == 3                        # --n required
    assert run(["factor", "--n", "35", "--alpha", "3,2"]) == 3
    assert run(["factor", "--n", "35", "--alpha", ","]) == 3
    assert run(["factor", "--n", "35", "--couplings", "abc"]) == 3
    assert run(["factor", "--n", "35", "--times", "x"]) == 3


def test_flag_value_spellings(capsys):
    # --flag=value reads as --flag value, and a repeated flag keeps its last value
    assert run(["search", "--n=64", "--solutions", "3", "--alpha", "1", "--alpha=2,3",
                "--format=json", "--l-max", "9", "--l-max=2"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["domain_size"] == 64 and config["alpha_schedule"] == [2, 3]
    assert config["L_max"] == 2


@pytest.mark.parametrize("argv,message", [
    (["factor", "--n", "35", "--l-max"], "argument --l-max: expected one argument"),
    (["factor", "--n", "--l-max", "3"], "argument --n: expected one argument"),
    (["factor", "--n", "3.5"], "argument --n: invalid int value: '3.5'"),
    (["factor", "--n", "35", "--stop-fidelity", "high"],
     "argument --stop-fidelity: invalid float value: 'high'"),
    (["factor", "--n", "35", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["solve", "--system", "s.json", "--mode", "sum"],
     "argument --mode: invalid choice: 'sum'"),
    (["factor", "--n", "35", "stray"], "unrecognized arguments: stray"),
    (["factor", "--n", "35", "--stop-f", "0.5"], "unrecognized arguments: --stop-f"),
    (["factor", "--n", "35", "--progress=1"], "unrecognized arguments: --progress=1"),
    (["factor", "--l-max", "3"], "the following arguments are required: --n"),
    (["stats", "--n", "35"], "the following arguments are required: --samples"),
    (["solve"], "the following arguments are required: --system"),
    (["search", "--n", "16", "--solutions", "3", "--solutions-file", "f.json"],
     "argument --solutions-file: not allowed with argument --solutions"),
])
def test_parse_errors_are_usage_errors(argv, message, capsys):
    # refused before any work, naming the flag or token at fault
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err


def test_factor_huge_n_runtime_error(capsys):
    assert run(["factor", "--n", "9999999999999999999999"]) == 2


def test_factor_past_bin_cap_runtime_error(capsys):
    # 1.73e9 trial pairs, more than the product-bin cap: refused before any work
    assert run(["factor", "--n", "3000000"]) == 2
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("n", [str(2**63), str(2**64)])
def test_search_domain_past_int64_runtime_error(n, capsys):
    # items are int64: refused as too large, not an OverflowError traceback
    assert run(["search", "--n", n, "--solutions", "5"]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_factor_explicit_times(tmp_path, capsys):
    rc = run(["factor", "--n", "35", "--times", "1.0,0.4,2.2,0.9,1.7",
              "--l-max", "5", "--out-dir", str(tmp_path), "--format", "json"])
    assert rc == 0
    doc = json.loads((tmp_path / "factor_report.json").read_text())
    assert doc["records"][0]["t_l"] == 1.0


def test_factor_progress_reports_the_pass_before_the_steps(capsys):
    assert run(["factor", "--n", "50000", "--l-max", "2", "--stop-fidelity", "1.0",
                "--progress"]) == 4
    lines = capsys.readouterr().err.splitlines()
    sieved = [i for i, line in enumerate(lines) if line.lstrip().startswith("sieved")]
    steps = [i for i, line in enumerate(lines) if line.lstrip().startswith("l=")]
    assert len(sieved) >= 2 and lines[sieved[-1]].endswith("100% of the product range")
    assert len(steps) == 2 and sieved[-1] < steps[0]


@pytest.mark.parametrize("command,l_max,times", [("factor", 5, "1.0,2.0"),
                                                  ("solve", 3, "1.0")])
def test_times_shorter_than_l_max(command, l_max, times, tmp_path):
    # the run stops when the explicit times run out, as a normal exit
    argv = {"factor": ["factor", "--n", "35", "--stop-fidelity", "1.0"],
            "solve": ["solve", "--system", str(tmp_path / "grid.json")]}[command]
    (tmp_path / "grid.json").write_text(json.dumps(GRID_SYSTEM))
    proc = subprocess.run(
        [sys.executable, "-m", "hoamp.cli", *argv, "--times", times, "--l-max", str(l_max),
         "--out-dir", str(tmp_path / "out"), "--format", "json"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(ensemble.__file__)), os.environ.get(
                "PYTHONPATH", "")])})
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    (path,) = (tmp_path / "out").iterdir()
    records = json.loads(path.read_text())["records"]
    assert [r["t_l"] for r in records] == [float(t) for t in times.split(",")]


def test_search_roundtrip(tmp_path, capsys):
    rc = run(["search", "--n", "64", "--solutions", "7,42",
              "--out-dir", str(tmp_path), "--format", "json"])
    assert rc == 0
    doc = json.loads((tmp_path / "search_report.json").read_text())
    assert [s[0] for s in doc["solutions"]] == [7, 42]
    assert "marked items: 7, 42" in capsys.readouterr().out


def test_search_solutions_file(tmp_path, capsys):
    f = tmp_path / "sol.json"
    f.write_text("[3, 11]")
    rc = run(["search", "--n", "16", "--solutions-file", str(f)])
    assert rc == 0
    f2 = tmp_path / "sol.txt"
    f2.write_text("3 11\n")
    assert run(["search", "--n", "16", "--solutions-file", str(f2)]) == 0


@pytest.mark.parametrize("entries", ["[3, 5.7]", "[3, true]", "[3, \"5\"]", "[3.0]"])
def test_search_solutions_file_rejects_non_integers(entries, tmp_path, capsys):
    # int() would have truncated 5.7 and read true as 1: both are refused,
    # as --solutions 3,5.7 is
    f = tmp_path / "sol.json"
    f.write_text(entries)
    assert run(["search", "--n", "16", "--solutions-file", str(f)]) == 3
    assert "usage error" in capsys.readouterr().err


def test_search_missing_solutions_usage(capsys):
    assert run(["search", "--n", "16"]) == 3
    assert run(["search", "--n", "16", "--solutions", "99"]) == 3


@pytest.mark.parametrize("schedule", [",", "-1", "3,2"])
def test_search_bad_alpha_schedule_usage(schedule, capsys):
    assert run(["search", "--n", "16", "--solutions", "3",
                "--alpha", schedule]) == 3
    assert "usage error: alpha schedule" in capsys.readouterr().err


def test_solve_roundtrip(tmp_path, capsys):
    system = {
        "variables": [{"name": "x", "bound": 3}, {"name": "y", "bound": 3}],
        "constraints": [
            {"expr": "x + y", "relation": "<=", "bound": 3},
            {"expr": "x*y", "relation": ">=", "bound": 2},
        ],
    }
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(system))
    rc = run(["solve", "--system", str(f), "--l-max", "30",
              "--out-dir", str(tmp_path), "--format", "json"])
    assert rc == 0
    doc = json.loads((tmp_path / "solve_report.json").read_text())
    assert doc["solution_count"] == 2
    assert sorted(map(tuple, (s[0] for s in doc["solutions"]))) == [(1, 2), (2, 1)]


def test_solve_stall_is_reported(tmp_path, capsys):
    # a run that ends below its stop mass says so in its summary line, and
    # still exits 0; the report does not change
    f = tmp_path / "grid.json"
    f.write_text(json.dumps(GRID_SYSTEM))
    argv = ["solve", "--system", str(f), "--l-max", "6", "--seed", "3"]
    assert run(argv + ["--out-dir", str(tmp_path), "--format", "json"]) == 0
    said = capsys.readouterr().out
    report = (tmp_path / "solve_report.json").read_bytes()
    mass = json.loads(report)["records"][-1]["solution_mass"]
    assert mass < 0.999999
    assert said.rstrip().endswith(f"; stalled: solution mass {mass:.6g} after 6 "
                                  f"iterations, stop mass 0.999999 not reached")
    assert b"stalled" not in report
    # a run that reaches its stop mass does not say it
    assert run(argv + ["--stop-mass", "0.05"]) == 0
    said = capsys.readouterr().err
    assert "satisfying tuple(s)" in said and "stalled" not in said


def test_search_stall_is_reported(tmp_path, capsys):
    # |alpha| = 0 never suppresses anything: the run ends at its iteration
    # cap with the prior solution mass, exits 0 and says it stalled
    argv = ["search", "--n", "10", "--solutions", "3", "--alpha", "0"]
    assert run(argv + ["--out-dir", str(tmp_path), "--format", "json"]) == 0
    said = capsys.readouterr().out
    report = (tmp_path / "search_report.json").read_bytes()
    records = json.loads(report)["records"]
    assert len(records) == 30 and records[-1]["solution_mass"] == pytest.approx(0.1)
    assert said.rstrip() == (
        f"wrote {tmp_path / 'search_report.json'}\nmarked items: 3   (30 iterations, "
        f"10 oracle calls); stalled: solution mass {records[-1]['solution_mass']:.6g} "
        f"after 30 iterations, stop mass 0.999999 not reached")
    assert b"stalled" not in report
    # a run that reaches its stop mass does not say it
    assert run(["search", "--n", "10", "--solutions", "3"]) == 0
    said = capsys.readouterr().err
    assert "marked items: 3" in said and "stalled" not in said


def test_solve_infeasible_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({
        "variables": [{"name": "x", "bound": 3}],
        "constraints": [{"expr": "x^2", "relation": "=", "bound": 5}],
    }))
    assert run(["solve", "--system", str(f)]) == 4


def test_solve_no_common_tuple_exits_before_any_step(tmp_path, capsys):
    # each constraint has accepted values over 0..5, but no tuple meets both
    f = tmp_path / "apart.json"
    f.write_text(json.dumps({
        "variables": [{"name": "x", "bound": 5}, {"name": "y", "bound": 5}],
        "constraints": [{"expr": "x + y", "relation": "<=", "bound": 2},
                        {"expr": "x*y", "relation": ">=", "bound": 9}],
    }))
    out = tmp_path / "out"
    assert run(["solve", "--system", str(f), "--out-dir", str(out)]) == 4
    assert "no solution" in capsys.readouterr().err
    assert not out.exists()


def test_solve_values_beyond_int64_exit_code(tmp_path, capsys):
    # 200000^4 = 1.6e21 does not fit the solver's int64 keys
    f = tmp_path / "big.json"
    f.write_text(json.dumps({
        "variables": [{"name": "x", "bound": 200_000}],
        "constraints": [{"expr": "x^4", "relation": "<=", "bound": 10}],
    }))
    assert run(["solve", "--system", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "'x^4'" in err and "int64" in err


def test_solve_values_beyond_128_bits_exit_code(tmp_path, capsys):
    # 100000^9 = 1e45 overflows evaluation itself, not only the int64 cast
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({
        "variables": [{"name": "x", "bound": 100_000}],
        "constraints": [{"expr": "x^9", "relation": ">=", "bound": 5}],
    }))
    assert run(["solve", "--system", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "'x^9'" in err


@pytest.mark.parametrize("bound", ['"3"', "Infinity", "-Infinity", "NaN", "true"])
def test_solve_bound_not_a_finite_number_is_a_usage_error(bound, tmp_path, capsys):
    f = tmp_path / "sys.json"
    f.write_text('{"variables": [{"name": "x", "bound": 3}], "constraints": '
                 '[{"expr": "x", "relation": "<=", "bound": %s}]}' % bound)
    assert run(["solve", "--system", str(f)]) == 3
    assert "finite number" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["3.7", '"3"', "true"])
def test_solve_variable_bound_not_an_integer_is_a_usage_error(bound, tmp_path, capsys):
    f = tmp_path / "sys.json"
    f.write_text('{"variables": [{"name": "x", "bound": %s}], "constraints": '
                 '[{"expr": "x", "relation": "<=", "bound": 2}]}' % bound)
    assert run(["solve", "--system", str(f), "--out-dir", str(tmp_path)]) == 3
    assert "must be an integer" in capsys.readouterr().err
    assert not list(tmp_path.glob("solve_report*"))


def test_solve_json_report_escapes_control_characters(tmp_path, capsys):
    # the parser takes a tab as whitespace; the report must still be JSON
    f = tmp_path / "sys.json"
    f.write_text(json.dumps({
        "variables": [{"name": "x", "bound": 3}, {"name": "y", "bound": 3}],
        "constraints": [{"expr": "x +\ty", "relation": "=", "bound": 3}],
    }))
    assert run(["solve", "--system", str(f), "--out-dir", str(tmp_path),
                "--format", "json"]) == 0
    doc = json.loads((tmp_path / "solve_report.json").read_text())
    assert doc["config"]["system"]["constraints"][0]["expr"] == "x +\ty"


def test_alpha_takes_one_value_or_a_schedule(capsys):
    argv = ["search", "--n", "64", "--solutions", "3", "--format", "json"]
    assert run(argv + ["--alpha", "1,2"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["alpha_schedule"] == [1, 2]
    assert run(argv + ["--alpha", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["alpha_schedule"] == [5]
    # one flag: the second one, which silently overrode --alpha, is gone
    assert run(argv + ["--alpha", "5", "--alpha-schedule", "1"]) == 3
    assert "unrecognized arguments: --alpha-schedule" in capsys.readouterr().err


def test_solve_mode_takes_only_max(tmp_path, capsys):
    # max is the solver's one multiplier: any other mode is a usage error
    # that writes no report
    f = tmp_path / "sys.json"
    f.write_text(json.dumps({
        "variables": [{"name": "x", "bound": 3}],
        "constraints": [{"expr": "x", "relation": "<=", "bound": 1}],
    }))
    assert run(["solve", "--system", str(f), "--mode", "sum-clipped",
                "--out-dir", str(tmp_path)]) == 3
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.glob("solve_report*"))


@pytest.mark.parametrize("schedule", [",", "-1", "3,2"])
def test_solve_bad_alpha_schedule_usage(schedule, tmp_path, capsys):
    f = tmp_path / "sys.json"
    f.write_text(json.dumps({
        "variables": [{"name": "x", "bound": 3}],
        "constraints": [{"expr": "x", "relation": "=", "bound": 2}],
    }))
    assert run(["solve", "--system", str(f), "--alpha", schedule]) == 3
    assert "usage error: alpha schedule" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags,message", [
    ("search", ["--l-max", "0"], "L_max must be >= 1"),
    ("search", ["--l-max", "-2", "--format", "csv"], "L_max must be >= 1"),
    ("search", ["--stop-mass", "0"], "stop_mass must be in (0, 1]"),
    ("solve", ["--l-max", "0"], "L_max must be >= 1"),
    ("solve", ["--l-max", "-2"], "L_max must be >= 1"),
    ("solve", ["--stop-mass", "0"], "stop_mass must be in (0, 1]"),
    ("solve", ["--stop-mass", "2"], "stop_mass must be in (0, 1]"),
])
def test_run_limits_out_of_range_are_usage_errors(command, flags, message, tmp_path, capsys):
    # refused before any work: no report is written
    system = tmp_path / "grid.json"
    system.write_text(json.dumps(GRID_SYSTEM))
    argv = {"search": ["search", "--n", "5000", "--solutions", "17"],
            "solve": ["solve", "--system", str(system)]}[command]
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out), "--format", "json"] + flags) == 3
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("times", ["", ",", " , "])
@pytest.mark.parametrize("command", ["factor", "solve"])
def test_empty_times_is_a_usage_error(command, times, tmp_path, capsys):
    # an explicitly empty list is refused, not run as seeded times
    system = tmp_path / "grid.json"
    system.write_text(json.dumps(GRID_SYSTEM))
    argv = {"factor": ["factor", "--n", "899"],
            "solve": ["solve", "--system", str(system)]}[command]
    out = tmp_path / "out"
    assert run(argv + ["--times", times, "--out-dir", str(out), "--format", "csv"]) == 3
    assert capsys.readouterr().err == (
        f"usage error: --times expects at least one number, got {times!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("couplings", ["", ",", " , "])
@pytest.mark.parametrize("argv", [["factor", "--n", "35"],
                                  ["stats", "--n", "35", "--samples", "2"]])
def test_empty_couplings_is_a_usage_error(argv, couplings, tmp_path, capsys):
    # an explicitly empty list is refused, not run with the default g = 1
    out = tmp_path / "out"
    assert run(argv + ["--couplings", couplings, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == "usage error: at least one coupling g_1 is needed\n"
    assert not out.exists()


@pytest.mark.parametrize("couplings,rc", [("0,1", 0), ("0,0,1", 4)])
def test_zero_linear_coupling_needs_explicit_times(couplings, rc, tmp_path, capsys):
    # seeded times are drawn in units of 1/|g_1|; explicit times need no unit
    # (five steps of g_3 u^3 leave (4, 7) the draw: exit 4, with a report)
    argv = ["factor", "--n", "35", "--couplings", couplings]
    out = tmp_path / "explicit"
    assert run(argv + ["--times", "1,2,3,4,5", "--out-dir", str(out), "--format", "json"]) == rc
    doc = json.loads((out / "factor_report.json").read_text())
    assert [r["t_l"] for r in doc["records"]] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert doc["config"]["order"] == len(couplings.split(","))
    capsys.readouterr()
    out = tmp_path / "seeded"
    assert run(argv + ["--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "g_1" in err and "--times" in err
    assert not out.exists()


@pytest.mark.parametrize("command,flags,product", [
    ("factor", ["--couplings", "1e200", "--times", "1e200"], "1e+200 * 1e+200"),
    ("factor", ["--times", "1e308"], "1.0 * 1e+308"),
    ("solve", ["--times", "1e308"], "1.0 * 1e+308"),
])
def test_g_times_t_beyond_exact_reduction_is_a_usage_error(command, flags, product,
                                                           tmp_path, capsys):
    # g*t past the double-double split is refused by name, with no
    # traceback, no replay-failure exit code and no report
    system = tmp_path / "grid.json"
    system.write_text(json.dumps(GRID_SYSTEM))
    argv = {"factor": ["factor", "--n", "35"],
            "solve": ["solve", "--system", str(system)]}[command]
    out = tmp_path / "out"
    assert run(argv + flags + ["--out-dir", str(out), "--format", "json"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: g*t = {product} is beyond the exact phase reduction")
    assert "2**996" in err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--alpha", "nan"], "alpha schedule must be finite"),
    (["--alpha", "inf"], "alpha schedule must be finite"),
    (["--alpha", "2,nan"], "alpha schedule must be finite"),
])
@pytest.mark.parametrize("command", ["factor", "search", "solve"])
def test_non_finite_alpha_is_a_usage_error(command, flags, message, tmp_path, capsys):
    # refused before any work: no report is written
    system = tmp_path / "grid.json"
    system.write_text(json.dumps(GRID_SYSTEM))
    argv = {"factor": ["factor", "--n", "35"],
            "search": ["search", "--n", "5000", "--solutions", "17"],
            "solve": ["solve", "--system", str(system)]}[command]
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out), "--format", "json"] + flags) == 3
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("script", ["search_demo.py", "solve_demo.py"])
def test_demo_scripts_recover_their_answers(script):
    # each demo exits 0 only when it recovers the expected solutions, and it
    # only reads the tracked example system
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    example = os.path.join(root, "scripts", "example_system.json")

    def snapshot():
        with open(example, "rb") as fh:
            return fh.read(), os.stat(example).st_mtime_ns

    before = snapshot()
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", script)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")])})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert snapshot() == before


@pytest.mark.parametrize("exc,code", [
    (cli._UsageError("x"), 3), (errors.ParseError("x", "x@", 1), 3),
    (errors.DomainError("x"), 3), (ValueError("x"), 3),
    (errors.EmptyRange("x"), 4), (errors.NoFactorInRange("x"), 4),
    (errors.NoSolutionFound("x"), 4), (errors.InfeasibleSystem("x"), 4),
    (errors.ConditionedMassVanished("x"), 2), (errors.DomainTooLarge("x"), 2),
    (fockoracle.DimensionTooLarge("x"), 2), (fockoracle.CutoffTooSmall("x"), 2),
    (errors.HoampError("x"), 2), (OSError("x"), 2), (MemoryError("x"), 2),
    (errors.WorkerFailed("x"), 2),
], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v))
def test_exit_code_of_each_error(exc, code, monkeypatch, capsys):
    # the no-solution errors are HoampErrors too: they must exit 4, not 2
    def fail(args):
        raise exc
    help_text, _, options = cli._COMMANDS["factor"]
    monkeypatch.setitem(cli._COMMANDS, "factor", (help_text, fail, options))
    assert run(["factor", "--n", "35"]) == code
    prefix = {2: "runtime error: ", 3: "usage error: ", 4: "no solution: "}[code]
    assert capsys.readouterr().err.startswith(prefix)


def test_cli_import_leaves_out_the_dense_oracle():
    # the test-only Fock oracle is not loaded by the command line, and every
    # name the package exports resolves
    code = ("import sys, hoamp, hoamp.cli; "
            "assert 'hoamp.fockoracle' not in sys.modules, 'fockoracle imported'; "
            "missing = [n for n in hoamp.__all__ if not hasattr(hoamp, n)]; "
            "assert not missing, missing")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(ensemble.__file__)), os.environ.get(
                "PYTHONPATH", "")])})
    assert proc.returncode == 0, proc.stderr


def test_solve_missing_file(capsys):
    assert run(["solve", "--system", "/nonexistent/x.json"]) == 2


def test_solve_malformed_file(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text('{"variables": []}')
    assert run(["solve", "--system", str(f)]) == 3
    f.write_text('{"variables": [{"name": "x", "bound": 3}], '
                 '"constraints": [{"expr": "x$", "relation": "=", "bound": 1}]}')
    assert run(["solve", "--system", str(f)]) == 3


def test_stats_writes_files_and_is_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    argv = ["stats", "--n", "35", "--samples", "5", "--seed", "11", "--l-max", "25"]
    assert run(argv + ["--out-dir", str(d1)]) == 0
    assert run(argv + ["--out-dir", str(d2)]) == 0
    for name in ("stats_summary.csv", "stats_trajectories.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_stats_single_sample_usage_error(capsys):
    assert run(["stats", "--n", "35", "--samples", "1"]) == 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_replay_table1_writes_its_comparison(fmt, tmp_path, monkeypatch, capsys):
    # the replay streams 123 million bins, so the command runs on stand-in
    # reports: N = 899 over the Table 1 times, whose rows fail, and the same
    # run with every record set to its Table 1 row, whose rows all pass
    failing = run_factoring(FactoringConfig(N=899, alpha_schedule=(2.0,), times=TABLE1_TIMES,
                                            L_max=len(TABLE1_TIMES), stop_fidelity=1.0))
    matching = dataclasses.replace(failing, records=[
        dataclasses.replace(rec, fidelity=f, pr_E=pr)
        for rec, (f, pr, _) in zip(failing.records, TABLE1_ROWS)])
    for name, report, code in (("failing", failing, 1), ("matching", matching, 0)):
        monkeypatch.setattr(cli, "replay_table1", lambda progress=False: report)
        out = tmp_path / name
        assert run(["replay-table1", "--out-dir", str(out), "--format", fmt]) == code
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == f"wrote {out / 'replay_table1'}.{fmt}"
        assert [line[:4] for line in lines[1:16]] == [f"l={l:2d}" for l in range(1, 16)]
        text = (out / f"replay_table1.{fmt}").read_text()
        if fmt == "csv":
            rows = [line for line in text.splitlines() if not line.startswith("#")]
            assert "# N: 899" in text and rows[0] == ",".join(REPLAY_HEADER)
        else:
            doc = json.loads(text)
            rows = [None, *doc["rows"]]
            assert doc["config"]["N"] == 899
        assert len(rows) == 16
        failed = sum(line.endswith("  FAIL") for line in lines[1:16])
        if code:
            assert f"{failed} row(s) outside tolerance" in captured.err and failed
            assert TABLE1_TIME_GRID_NOTE in captured.err
        else:
            assert lines[16:] == ["all rows within tolerance"] and not failed
            assert captured.err == ""


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 3
    assert "invalid choice" in capsys.readouterr().err
    for bad in ("nope", ""):
        assert run([bad] if bad else []) == 3
        err = capsys.readouterr().err
        assert f"invalid choice: '{bad}'" in err
        assert all(name in err for name in SUBCOMMANDS)


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["factor", "--n", "35", "--format", "json"]])
def test_closed_stdout_exits_141_quietly(argv, unbuffered):
    # a reader that went away (`hoamp --help | head -1`) is no run failure:
    # exit 128 + SIGPIPE with no error on stderr, whether the child's stdout
    # is buffered (the write fails at the final flush) or not (at print)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(ensemble.__file__)),
                                         os.environ.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "hoamp.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 141, proc.stderr
    assert not any(text in proc.stderr for text in ("runtime error", "BrokenPipeError",
                                                    "Exception ignored", "Traceback"))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        run(["--version"])
    assert ei.value.code == 0
    assert capsys.readouterr().out == f"hoamp {__version__}\n"


SUBCOMMANDS = ("factor", "search", "solve", "replay-table1", "stats")


def test_help_lists_every_subcommand(capsys):
    for flag in ("--help", "-h"):
        with pytest.raises(SystemExit) as ei:
            run([flag])
        assert ei.value.code == 0
        out = capsys.readouterr().out
        assert all(f"  {name} " in out for name in SUBCOMMANDS)
        # each subcommand's help lists its flags from the option table
        with pytest.raises(SystemExit) as ei:
            run(["factor", "--n", "35", flag])
        assert ei.value.code == 0
        out = capsys.readouterr().out
        assert "--stop-fidelity" in out and "--n int" in out and "(required)" in out


def test_cli_call_loads_no_argument_parser():
    # a command line costs one pass over argv: neither import nor a call
    # loads argparse, or the gettext and locale modules it pulls in
    code = ("import contextlib, io, sys, hoamp.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = hoamp.cli.main(['factor', '--n', '35', '--l-max', '2',"
            " '--format', 'json'])\n"
            "assert rc == 0, rc\n"
            "loaded = {'argparse', 'gettext', 'locale'} & set(sys.modules)\n"
            "assert not loaded, loaded")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(ensemble.__file__)), os.environ.get(
                "PYTHONPATH", "")])})
    assert proc.returncode == 0, proc.stderr


# each subcommand's options, by dest
CLI_SURFACE = {
    "factor": {"n", "couplings", "times", "progress", "seed", "alpha", "l_max",
               "stop_fidelity", "out_dir", "format"},
    "search": {"n", "solutions", "solutions_file", "seed", "alpha", "l_max", "stop_mass",
               "out_dir", "format"},
    "solve": {"system", "mode", "times", "seed", "alpha", "l_max", "stop_mass", "out_dir",
              "format"},
    "replay-table1": {"progress", "out_dir", "format"},
    "stats": {"n", "samples", "couplings", "seed", "alpha", "l_max", "stop_fidelity",
              "out_dir"},
}


def test_cli_surface():
    assert list(cli._COMMANDS) == list(SUBCOMMANDS)
    for name, (_, _, options) in cli._COMMANDS.items():
        flags = [row[0] for row in options]
        assert len(set(flags)) == len(flags), name
        assert {f[2:].replace("-", "_") for f in flags} == CLI_SURFACE[name], name
    # the defaults the reports echo
    _, args = cli._parse(["factor", "--n", "35"])
    assert vars(args) == {"n": 35, "couplings": None, "times": None, "progress": False,
                          "seed": 0, "alpha": "2.0", "l_max": 30, "stop_fidelity": 0.99,
                          "out_dir": None, "format": "csv"}
    _, args = cli._parse(["solve", "--system", "s.json"])
    assert (args.mode, args.stop_mass) == ("max", 0.999999)


@pytest.mark.parametrize("argv", [
    ["factor", "--n", "35", "--k-order", "1"],
    ["stats", "--n", "35", "--samples", "2", "--k-order", "1"],
    ["stats", "--n", "35", "--samples", "2", "--format", "json"],
])
def test_removed_flags_are_usage_errors(argv, tmp_path, capsys):
    # K is the number of --couplings, and stats always writes two CSV files
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out)]) == 3
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


GRID_SYSTEM = {
    "variables": [{"name": "x", "bound": 20}, {"name": "y", "bound": 20}],
    "constraints": [{"expr": "x + y", "relation": "<=", "bound": 20},
                    {"expr": "x*y", "relation": ">=", "bound": 50}],
}


@pytest.mark.parametrize("command", ["factor", "search", "solve"])
def test_reports_identical_across_thread_counts(command, tmp_path, monkeypatch, capsys):
    # factor --n 50000 has 1.41M product bins: 22 conditioning blocks
    system = tmp_path / "grid.json"
    system.write_text(json.dumps(GRID_SYSTEM))
    argv = {
        "factor": ["factor", "--n", "50000", "--seed", "3"],
        "search": ["search", "--n", "5000", "--solutions", "17,4093", "--seed", "3"],
        "solve": ["solve", "--system", str(system), "--l-max", "6", "--seed", "3"],
    }[command]
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("HOAMP_THREADS", threads)
        out = tmp_path / threads
        assert run(argv + ["--out-dir", str(out), "--format", "json"]) == 0
        (path,) = out.iterdir()
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    if command == "factor":
        assert len(ensemble.init_uniform_factoring(50_000).keys) > 2 * KERNEL_BLOCK
    elif command == "search":
        box = BlackBox.from_solution_indices(5000, [17, 4093])
        st = apply_black_box(initial_search_state(box), box)
        assert len(st.keys) == 2 and st.counts.tolist() == [2, 4998]
    else:
        # the solver's bins are the distinct rows of its constraint values
        st = uniform_state(ConstraintSystem.from_json(GRID_SYSTEM))
        x, y = np.divmod(np.arange(21 * 21), 21)
        assert np.array_equal(st.keys, np.unique(np.stack([x + y, x * y], axis=1), axis=0))


LINE_SYSTEM = {
    "variables": [{"name": "x", "bound": 200_000}],
    "constraints": [{"expr": "x", "relation": "<=", "bound": 10}],
}


def test_solve_report_identical_across_thread_counts_past_one_block(tmp_path, monkeypatch,
                                                                    capsys):
    # 200,001 one-tuple bins: each conditioning step runs 4 blocks on the pool
    system = tmp_path / "line.json"
    system.write_text(json.dumps(LINE_SYSTEM))
    argv = ["solve", "--system", str(system), "--l-max", "4", "--seed", "5",
            "--format", "json"]
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("HOAMP_THREADS", threads)
        out = tmp_path / threads
        assert run(argv + ["--out-dir", str(out)]) == 0
        (path,) = out.iterdir()
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    assert len(json.loads(reports[0])["records"]) == 4
    n_bins = len(uniform_state(ConstraintSystem.from_json(LINE_SYSTEM)).keys)
    assert n_bins == 200_001 and -(-n_bins // KERNEL_BLOCK) == 4
