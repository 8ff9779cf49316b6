"""Deterministic report serialization.

Every float is rendered with repr-exact 17 significant digits so a fixed seed
reproduces output files byte for byte across runs and platforms.  CSV files
carry their run configuration in leading '#' comment lines; JSON is emitted
by a small hand-rolled writer because the stdlib encoder does not let us pin
the float format.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from dataclasses import dataclass

import numpy as np


def fmt_float(x: float) -> str:
    """17 significant digits, enough to round-trip any double exactly."""
    return format(float(x), ".17g")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    s = str(v)
    if any(c in s for c in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def write_csv(dest, header, rows, meta: dict = None) -> None:
    """CSV with '# key: value' comment lines before the header row.

    `dest` is a path, or an open text stream such as sys.stdout.
    """
    if not hasattr(dest, "write"):
        with open(dest, "w", newline="") as fh:
            write_csv(fh, header, rows, meta)
        return
    if meta:
        for key, value in meta.items():
            dest.write(f"# {key}: {value}\n")
    dest.write(",".join(header) + "\n")
    for row in rows:
        dest.write(",".join(_cell(v) for v in row) + "\n")


def _json_value(v, out: io.StringIO, indent: int) -> None:
    pad = "  " * indent
    if v is None:
        out.write("null")
    elif isinstance(v, bool):
        out.write("true" if v else "false")
    elif isinstance(v, (int, np.integer)):
        out.write(str(int(v)))
    elif isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f) or math.isinf(f):
            raise ValueError("non-finite value in report")
        out.write(fmt_float(f))
    elif isinstance(v, str):
        out.write(json.dumps(v, ensure_ascii=False))
    elif isinstance(v, dict):
        if not v:
            out.write("{}")
            return
        out.write("{\n")
        items = list(v.items())
        for i, (k, val) in enumerate(items):
            out.write(pad + "  " + json.dumps(str(k), ensure_ascii=False) + ": ")
            _json_value(val, out, indent + 1)
            out.write(",\n" if i < len(items) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(v, (list, tuple, np.ndarray)):
        seq = list(v)
        if not seq:
            out.write("[]")
            return
        out.write("[\n")
        for i, item in enumerate(seq):
            out.write(pad + "  ")
            _json_value(item, out, indent + 1)
            out.write(",\n" if i < len(seq) - 1 else "\n")
        out.write(pad + "]")
    elif dataclasses.is_dataclass(v):
        _json_value(dataclasses.asdict(v), out, indent)
    else:
        raise TypeError(f"cannot serialize {type(v).__name__}")


def to_json_text(obj) -> str:
    out = io.StringIO()
    _json_value(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def write_json(path, obj) -> None:
    """Serialize first, so a report that cannot be written leaves no file."""
    text = to_json_text(obj)
    with open(path, "w") as fh:
        fh.write(text)


def report_to_dict(report) -> dict:
    """Flatten a run/search/solver report dataclass into plain JSON types."""
    d = dataclasses.asdict(report) if dataclasses.is_dataclass(report) else dict(report)
    for key, value in list(d.items()):
        if isinstance(value, tuple):
            d[key] = list(value)
    return d


def _meta_lines(meta: dict = None) -> dict:
    from . import __version__
    base = {"generator": f"hoamp {__version__}"}
    if meta:
        base.update(meta)
    return base


def write_iteration_csv(path, report, meta: dict = None) -> None:
    """One row per conditioning step, column set adapted to the record type.

    `path` may also be an open text stream (see write_csv).
    """
    recs = report.records
    if not recs:
        raise ValueError("report has no iteration records")
    header = [f.name for f in dataclasses.fields(recs[0])]
    rows = [[getattr(r, name) for name in header] for r in recs]
    write_csv(path, header, rows, _meta_lines(meta))


REPLAY_HEADER = ("l", "t_l", "ref_F", "computed_F", "ref_pr", "computed_pr",
                 "pr_abs_diff", "fidelity_rel_diff", "fidelity_checked", "passed")


def write_replay_csv(path, comparison_rows, meta: dict = None) -> None:
    rows = [
        [c.l, c.t_l, c.ref_fidelity, c.computed_fidelity, c.ref_pr, c.computed_pr,
         c.pr_abs_diff, c.fidelity_rel_diff, c.fidelity_checked, c.passed]
        for c in comparison_rows
    ]
    write_csv(path, REPLAY_HEADER, rows, _meta_lines(meta))


@dataclass(frozen=True)
class StatsSummary:
    """Per-iteration mean and sample std over repeated trajectories."""

    n_samples: int
    iterations: tuple
    mean_pr: tuple
    std_pr: tuple
    mean_fidelity: tuple
    std_fidelity: tuple


def summarize_trajectories(reports) -> StatsSummary:
    """Aggregate equal-length factoring trajectories (pad-free: truncates to
    the shortest run so every column has the full sample count)."""
    n = len(reports)
    if n < 2:
        raise ValueError("need at least 2 samples for a std estimate")
    depth = min(len(r.records) for r in reports)
    pr = np.array([[r.records[i].pr_E for i in range(depth)] for r in reports])
    fid = np.array([[r.records[i].fidelity for i in range(depth)] for r in reports])
    return StatsSummary(
        n_samples=n,
        iterations=tuple(range(1, depth + 1)),
        mean_pr=tuple(float(x) for x in pr.mean(axis=0)),
        std_pr=tuple(float(x) for x in pr.std(axis=0, ddof=1)),
        mean_fidelity=tuple(float(x) for x in fid.mean(axis=0)),
        std_fidelity=tuple(float(x) for x in fid.std(axis=0, ddof=1)),
    )


def write_stats_summary_csv(path, summary: StatsSummary, meta: dict = None) -> None:
    header = ("l", "mean_pr", "std_pr", "mean_fidelity", "std_fidelity")
    rows = [
        [l, summary.mean_pr[i], summary.std_pr[i],
         summary.mean_fidelity[i], summary.std_fidelity[i]]
        for i, l in enumerate(summary.iterations)
    ]
    m = _meta_lines(meta)
    m["samples"] = summary.n_samples
    write_csv(path, header, rows, m)


def write_stats_long_csv(path, reports, meta: dict = None) -> None:
    """Plot-ready long format: one row per (sample, iteration)."""
    header = ("sample", "l", "t_l", "pr_E", "C_l", "fidelity")
    rows = []
    for s, rep in enumerate(reports):
        for r in rep.records:
            rows.append([s, r.l, r.t_l, r.pr_E, r.C_l, r.fidelity])
    write_csv(path, header, rows, _meta_lines(meta))
