"""Command line front end.

Subcommands: factor, search, solve, replay-table1, stats.  Exit codes:
0 success, 1 replay tolerance failure, 2 runtime failure (vanished mass,
resource caps, I/O), 3 usage error, 4 no factor / no solution / infeasible
system, 141 (128 + SIGPIPE) stdout closed by its reader.  HOAMP_THREADS
caps the worker processes of a streamed factoring pass (default and
ceiling: the usable CPUs).

One table, _COMMANDS, holds every subcommand's options; a single pass over
argv parses them, and the same rows print `hoamp <command> --help`.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import __version__
from .constraints import ConstraintSystem
from .dynamics import OscillatorParams
from .errors import (DomainError, EmptyRange, HoampError, InfeasibleSystem, NoFactorInRange,
                     NoSolutionFound, ParseError)
from .factoring import (STREAM_STATS, TABLE1_TIME_GRID_NOTE, FactoringConfig,
                        replay_table1, run_factoring, table1_comparison)
from .reporting import (fmt_float, summarize_trajectories, to_json_text,
                        write_iteration_csv, write_json, write_replay_csv,
                        write_stats_long_csv, write_stats_summary_csv)
from .rng import SplitMix64
from .search import BlackBox, SearchConfig, run_search
from .solver import run_solver


class _UsageError(Exception):
    pass


def _parse_floats(text: str, flag: str):
    try:
        return tuple(float(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated numbers, got {text!r}")


def _parse_ints(text: str, flag: str):
    try:
        return tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}")


def _load_solution_indices(path: str):
    import json
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
        # bool is an int subclass, and int() would truncate 5.7
        if not isinstance(data, list) or any(type(i) is not int for i in data):
            raise _UsageError(f"{path}: expected a JSON array of integer indices")
        return tuple(data)
    except json.JSONDecodeError:
        return _parse_ints(text, path)


def _oscillator_params(args) -> OscillatorParams:
    # a ValueError from OscillatorParams is a usage error in main
    return OscillatorParams(couplings=_parse_floats(args.couplings, "--couplings")
                            if args.couplings is not None else (1.0,))


def _alpha_schedule(args) -> tuple:
    return _parse_floats(args.alpha, "--alpha")


def _times(args):
    if args.times is None:
        return "seeded"
    times = _parse_floats(args.times, "--times")
    if not times:
        raise _UsageError(f"--times expects at least one number, got {args.times!r}")
    return times


def _emit(args, basename: str, report, csv_writer) -> None:
    """Write the report (a report dataclass or a dict) to --out-dir as
    basename.csv or basename.json, or print it."""
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        base = os.path.join(args.out_dir, basename)
        if args.format == "json":
            write_json(base + ".json", report)
            print(f"wrote {base}.json")
        else:
            csv_writer(base + ".csv")
            print(f"wrote {base}.csv")
    else:
        if args.format == "json":
            sys.stdout.write(to_json_text(report))
        else:
            csv_writer(sys.stdout)


def _say(args, msg: str) -> None:
    """Human summary: stdout normally, stderr when the report uses stdout."""
    print(msg, file=sys.stdout if args.out_dir else sys.stderr)


def _stall_note(records, field: str, stop: float) -> str:
    """The summary's note when the run ended with its last record's `field`
    (fidelity or solution_mass) below its stop value, else ''."""
    reached, name = getattr(records[-1], field), field.replace("_", " ")
    if reached >= stop:
        return ""
    return (f"; stalled: {name} {reached:.6g} after {len(records)} iterations, "
            f"stop {name.split()[-1]} {stop:g} not reached")


def cmd_factor(args) -> int:
    config = FactoringConfig(
        N=args.n, params=_oscillator_params(args), alpha_schedule=_alpha_schedule(args),
        times=_times(args), seed=args.seed, L_max=args.l_max,
        stop_fidelity=args.stop_fidelity,
    )
    report = run_factoring(config, progress=args.progress)
    meta = {"command": "factor", "N": args.n, "seed": args.seed}
    _emit(args, "factor_report", report, lambda p: write_iteration_csv(p, report, meta))
    if report.sampled_factors is None:
        print(f"sampled {report.sampled_tuple}, not a factor pair of {args.n}",
              file=sys.stderr)
        return 4
    p, q = report.sampled_factors
    _say(args, f"{args.n} = {p} * {q}   (fidelity {fmt_float(report.final_fidelity)}, "
               f"{len(report.records)} iterations)"
               + _stall_note(report.records, "fidelity", args.stop_fidelity))
    return 0


def cmd_search(args) -> int:
    if args.solutions is not None and args.solutions_file is not None:
        raise _UsageError("argument --solutions-file: not allowed with argument --solutions")
    if args.solutions is not None:
        indices = _parse_ints(args.solutions, "--solutions")
    elif args.solutions_file is not None:
        indices = _load_solution_indices(args.solutions_file)
    else:
        raise _UsageError("search needs --solutions or --solutions-file")
    box = BlackBox.from_solution_indices(args.n, indices)
    config = SearchConfig(alpha_schedule=_alpha_schedule(args), L_max=args.l_max,
                          stop_mass=args.stop_mass, seed=args.seed)
    report = run_search(config, box)
    meta = {"command": "search", "domain": args.n, "seed": args.seed}
    _emit(args, "search_report", report, lambda p: write_iteration_csv(p, report, meta))
    found = ", ".join(str(n) for n, _ in report.solutions)
    _say(args, f"marked items: {found}   ({len(report.records)} iterations, "
               f"{report.oracle_calls} oracle calls)"
               + _stall_note(report.records, "solution_mass", args.stop_mass))
    return 0


def cmd_solve(args) -> int:
    try:
        with open(args.system) as fh:
            system = ConstraintSystem.from_json(fh.read())
    except OSError as exc:
        print(f"cannot read {args.system}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, TypeError) as exc:
        raise _UsageError(f"bad system file {args.system}: {exc}")
    report = run_solver(system, alpha_schedule=_alpha_schedule(args), times=_times(args),
                        seed=args.seed, L_max=args.l_max, stop_mass=args.stop_mass)
    meta = {"command": "solve", "system": args.system, "mode": args.mode,
            "seed": args.seed}
    _emit(args, "solve_report", report, lambda p: write_iteration_csv(p, report, meta))
    _say(args, f"{report.solution_count} satisfying tuple(s); sampled {report.sampled_tuple}"
               + _stall_note(report.records, "solution_mass", args.stop_mass))
    return 0


def cmd_replay_table1(args) -> int:
    report = replay_table1(progress=args.progress)
    rows = table1_comparison(report)
    meta = {"command": "replay-table1", "N": report.config["N"]}
    _emit(args, "replay_table1", {"rows": rows, "config": report.config},
          lambda p: write_replay_csv(p, rows, meta))
    failed = [r for r in rows if not r.passed]
    for r in rows:
        tag = "ok" if r.passed else "FAIL"
        print(f"l={r.l:2d}  F={fmt_float(r.computed_fidelity):>24s}  "
              f"pr={fmt_float(r.computed_pr):>22s}  {tag}")
    if failed:
        print(f"{len(failed)} row(s) outside tolerance", file=sys.stderr)
        print(TABLE1_TIME_GRID_NOTE, file=sys.stderr)
        return 1
    print("all rows within tolerance")
    return 0


def cmd_stats(args) -> int:
    if args.samples < 2:
        raise _UsageError("--samples must be at least 2")
    master = SplitMix64(args.seed)
    reports = []
    for i in range(args.samples):
        config = FactoringConfig(
            N=args.n, params=_oscillator_params(args),
            alpha_schedule=_alpha_schedule(args), seed=master.derive(STREAM_STATS + i),
            L_max=args.l_max, stop_fidelity=args.stop_fidelity,
        )
        reports.append(run_factoring(config))
    summary = summarize_trajectories(reports)
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    meta = {"command": "stats", "N": args.n, "seed": args.seed,
            "samples": args.samples}
    s_path = os.path.join(out_dir, "stats_summary.csv")
    l_path = os.path.join(out_dir, "stats_trajectories.csv")
    write_stats_summary_csv(s_path, summary, meta)
    write_stats_long_csv(l_path, reports, meta)
    print(f"wrote {s_path}\nwrote {l_path}")
    return 0


# one row per option: flag, type, default, required, choices, help; bool takes no value
_SEED = ("--seed", int, 0, False, None, "deterministic run seed")
_ALPHA = ("--alpha", str, "2.0", False, None,
          "marker amplitude |alpha|: one value, or a comma-separated non-decreasing "
          "schedule, one per iteration")
_L_MAX = ("--l-max", int, 30, False, None, "iteration cap")
_STOP_FIDELITY = ("--stop-fidelity", float, 0.99, False, None, "stop at this fidelity")
_STOP_MASS = ("--stop-mass", float, 0.999999, False, None, "stop at this solution mass")
_COUPLINGS = ("--couplings", str, None, False, None,
              "comma-separated g_1..g_K; K, at most 4, is their count (default: 1)")
_TIMES = ("--times", str, None, False, None, "explicit evolution times (default: seeded)")
_PROGRESS = ("--progress", bool, False, False, None, "report progress on stderr")
_REPORT = (("--out-dir", str, None, False, None, "directory for report files"),
           ("--format", str, "csv", False, ("csv", "json"), "report format"))

# subcommand -> (help, handler, option rows)
_COMMANDS = {
    "factor": ("factor an integer N", cmd_factor, (
        ("--n", int, None, True, None, "integer to factor"), _COUPLINGS, _TIMES, _PROGRESS,
        _SEED, _ALPHA, _L_MAX, _STOP_FIDELITY, *_REPORT)),
    "search": ("amplify marked items of a black box", cmd_search, (
        ("--n", int, None, True, None, "domain size"),
        ("--solutions", str, None, False, None, "comma-separated marked indices"),
        ("--solutions-file", str, None, False, None,
         "file with a JSON array or whitespace-separated indices"),
        _SEED, _ALPHA, _L_MAX, _STOP_MASS, *_REPORT)),
    "solve": ("solve an integer constraint system", cmd_solve, (
        ("--system", str, None, True, None, "JSON file with the system"),
        ("--mode", str, "max", False, ("max",), "the per-constraint multiplier"),
        _TIMES, _SEED, _ALPHA, _L_MAX, _STOP_MASS, *_REPORT)),
    "replay-table1": ("re-run the published factoring trajectory and diff it",
                      cmd_replay_table1, (_PROGRESS, *_REPORT)),
    "stats": ("repeated factoring runs, mean/std per iteration", cmd_stats, (
        ("--n", int, None, True, None, "integer to factor"),
        ("--samples", int, None, True, None, "number of seeded runs, at least 2"),
        _COUPLINGS, _SEED, _ALPHA, _L_MAX, _STOP_FIDELITY,
        ("--out-dir", str, None, False, None,
         "directory for the two CSV files (default: .)"))),
}


def _print_help(name=None):
    """Print the top-level help, or subcommand `name`'s, and exit 0."""
    if name is None:
        print("usage: hoamp [--help] [--version] <command> [options]\n\n"
              "Amplitude amplification on coupled oscillators.  `hoamp <command> --help`\n"
              "lists a command's options; HOAMP_THREADS caps the worker processes.\n\n"
              "commands:")
        rows = [(cmd, text) for cmd, (text, _, _) in _COMMANDS.items()]
    else:
        print(f"usage: hoamp {name} [options]\n\n{_COMMANDS[name][0]}\n\noptions:")
        rows = [(flag if kind is bool else f"{flag} {'|'.join(choices or [kind.__name__])}",
                 text + (" (required)" if required else "" if default in (None, False)
                         else f" (default: {default})"))
                for flag, kind, default, required, choices, text in _COMMANDS[name][2]]
    print(*(f"  {left:<24}{right}" for left, right in rows), sep="\n")
    raise SystemExit(0)


def _parse(argv):
    """(handler, options) of one command line: exact long flags, `--flag value`
    or `--flag=value`, the last of a repeated flag winning."""
    name = argv[0] if argv else ""
    if name in ("-h", "--help"):
        _print_help()
    if name == "--version":
        print(f"hoamp {__version__}")
        raise SystemExit(0)
    if name not in _COMMANDS:
        raise _UsageError(f"argument command: invalid choice: {name!r} "
                          f"(choose from {', '.join(_COMMANDS)})")
    _, handler, options = _COMMANDS[name]
    rows = {row[0]: row for row in options}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _print_help(name)
        flag, eq, value = token.partition("=")
        if flag not in rows or eq and rows[flag][1] is bool:
            raise _UsageError(f"unrecognized arguments: {token}")
        _, kind, _, _, choices, _ = rows[flag]
        if kind is not bool and not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise _UsageError(f"argument {flag}: expected one argument")
        try:
            values[flag] = True if kind is bool else kind(value)
        except ValueError:
            raise _UsageError(f"argument {flag}: invalid {kind.__name__} value: {value!r}")
        if choices and values[flag] not in choices:
            raise _UsageError(f"argument {flag}: invalid choice: {value!r} "
                              f"(choose from {', '.join(choices)})")
    for flag, _, _, required, _, _ in options:
        if required and flag not in values:
            raise _UsageError(f"the following arguments are required: {flag}")
    return handler, SimpleNamespace(**{flag[2:].replace("-", "_"): values.get(flag, default)
                                       for flag, _, default, _, _, _ in options})


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            handler, args = _parse(argv)
            return handler(args)
        finally:    # so that a closed stdout raises here, not at exit
            sys.stdout.flush()
    except BrokenPipeError:     # ahead of OSError: no run failed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (_UsageError, ParseError, DomainError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    # ahead of HoampError, which every one of them is
    except (EmptyRange, NoFactorInRange, NoSolutionFound, InfeasibleSystem) as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 4
    except (HoampError, OSError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
