"""Traced replay: spans around the public functions of each hoamp module.

The tracer wraps functions from outside the program.  Modules import each
other's functions by name (``from .dynamics import phase_delta_batch``), so a
function is replaced in every ``hoamp`` module namespace that holds it, and a
method on its class.  Each call records a span: name, start, end, the span
that called it on the same thread, and a count of the rows or elements it
worked on.  Spans stay in memory until the replay ends.  Nothing inside
``src/hoamp`` changes.

Spans opened on the ensemble's worker threads have no parent, and their
durations add up across threads: a ``ns_per_elem`` figure is thread time per
element, not wall time.  A metric whose layer the workload never calls is 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import statistics
import tempfile
import threading
import time

import hoamp
import hoamp.cli
from hoamp import constraints, dynamics, ensemble, factoring, reporting, search, solver

import workloads

# per_layer metric name -> (unit, better); the order is the print order
PER_LAYER = {
    "dynamics.phase_delta_batch.ns_per_elem": ("ns", "lower"),
    "dynamics.phase_delta_batch.calls": ("count", "lower"),
    "dynamics.eps_squared_batch.ns_per_elem": ("ns", "lower"),
    "dynamics.epsilon_batch.ns_per_elem": ("ns", "lower"),
    "ensemble.init_uniform_factoring.s": ("s", "lower"),
    "ensemble.rows": ("count", "lower"),
    "ensemble.rows_per_tuple": ("ratio", "lower"),
    "ensemble.state_mb": ("MiB", "lower"),
    "ensemble.conditional_update.ns_per_row.t1": ("ns", "lower"),
    "ensemble.conditional_update.ns_per_row.t2": ("ns", "lower"),
    "ensemble.conditional_update.speedup_2t": ("x", "higher"),
    "ensemble.conditional_update.bytes_per_row": ("B", "lower"),
    "ensemble.fidelity.ms_per_call": ("ms", "lower"),
    "ensemble.fidelity.iter_share": ("ratio", "lower"),
    "ensemble.apply_entry_multipliers.ns_per_row": ("ns", "lower"),
    "ensemble.sample.ms": ("ms", "lower"),
    "factoring.run_iteration.ms_p50": ("ms", "lower"),
    "factoring.run_iteration.self_ms": ("ms", "lower"),
    "factoring.resonant_iters": ("count", "lower"),
    "search.apply_black_box.s": ("s", "lower"),
    "search.oracle_calls": ("count", "lower"),
    "search.search_iteration.ms": ("ms", "lower"),
    "search.run_search.residual_s": ("s", "lower"),
    "constraints.evaluate_batch.ns_per_tuple": ("ns", "lower"),
    "solver.build_accepted_sets.s": ("s", "lower"),
    "solver.constraint_multipliers.ns_per_pair": ("ns", "lower"),
    "solver.angle_pairs": ("count", "lower"),
    "solver.solver_iteration.ms": ("ms", "lower"),
    "reporting.write_iteration_csv.ms": ("ms", "lower"),
    "reporting.write_json.ms": ("ms", "lower"),
    "reporting.report_bytes": ("B", "lower"),
    "cli.main.overhead_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

_MODULES = (hoamp, hoamp.cli, constraints, dynamics, ensemble, factoring,
            reporting, search, solver)
_PROBE_CALLS = 3


class Tracer:
    """In-memory span recorder with one call stack per thread."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, size=None, keep=None):
        """fn with a span; size(args, out) counts its work, keep(out) is stored."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = {"name": name, "id": next(tracer._ids),
                    "parent": stack[-1]["id"] if stack else None, "child_s": 0.0}
            parent = stack[-1] if stack else None
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            span["s"] = span["end"] - span["start"]
            if parent is not None:
                parent["child_s"] += span["s"]
            span["size"] = size(args, out) if size else 0
            if keep:
                span["kept"] = keep(out)
            with tracer._lock:
                tracer.spans.append(span)
            return out

        return traced

    def count_calls(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch_function(self, fn, wrapper) -> None:
        """Replace fn by wrapper in every hoamp module that holds it."""
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # aggregation
    def of(self, name: str) -> list:
        return [s for s in self.spans if s["name"] == name]

    def total_s(self, name: str) -> float:
        return math.fsum(s["s"] for s in self.of(name))

    def self_s(self, name: str) -> list:
        return [s["s"] - s["child_s"] for s in self.of(name)]

    def per_unit(self, name: str, scale: float) -> float:
        """Total time per counted unit, times scale; 0 if nothing was counted."""
        n = sum(s["size"] for s in self.of(name))
        return scale * self.total_s(name) / n if n else 0.0


def _len_arg(i):
    return lambda args, out: len(args[i])


def _rows(state) -> int:
    return len(state.keys) if state.layout == "binned" else len(state.tuples)


def _state_info(state) -> dict:
    arrays = (state.tuples, state.weights, state.keys, state.counts, state.mass)
    return {"rows": _rows(state),
            "nbytes": sum(a.nbytes for a in arrays if a is not None)}


def _pairs(args, out) -> int:
    accepted, ok = args[1], out[1]
    violators = int(len(ok) - ok.sum())
    return violators * (len(accepted.values) if accepted.values is not None else 1)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer the workloads reach."""
    fn = tracer.patch_function
    for mod, name, size in (
        (dynamics, "phase_delta_batch", _len_arg(2)),
        (dynamics, "eps_squared_batch", _len_arg(1)),
        (dynamics, "epsilon_batch", _len_arg(1)),
        (ensemble, "conditional_update", lambda a, o: _rows(a[0])),
        (ensemble, "apply_entry_multipliers", _len_arg(1)),
        (ensemble, "fidelity", None),
        (ensemble, "sample", None),
        (factoring, "run_iteration", None),
        (search, "apply_black_box", None),
        (search, "search_iteration", None),
        (solver, "build_accepted_sets", None),
        (solver, "constraint_multipliers", _pairs),
        (solver, "solver_iteration", None),
        (reporting, "write_json", None),
    ):
        orig = getattr(mod, name)
        fn(orig, tracer.wrap(f"{mod.__name__[6:]}.{name}", orig, size=size))
    for mod, name in ((ensemble, "init_uniform_factoring"),
                      (search, "initial_search_state"), (solver, "uniform_state")):
        orig = getattr(mod, name)
        fn(orig, tracer.wrap("state." + name, orig, keep=_state_info))
    for mod, name in ((factoring, "run_factoring"), (search, "run_search"),
                      (solver, "run_solver")):
        orig = getattr(mod, name)
        fn(orig, tracer.wrap("run", orig, keep=lambda report: report))
    tracer.patch_method(
        constraints.ConstraintExpr, "evaluate_batch",
        tracer.wrap("constraints.evaluate_batch", constraints.ConstraintExpr.evaluate_batch,
                    size=lambda a, o: len(o)))
    tracer.patch_method(search.BlackBox, "h",
                        tracer.count_calls("search.oracle_calls", search.BlackBox.h))


def _cli_call(main, spec: dict, out_dir: str):
    argv = spec["argv"] + ["--out-dir", out_dir, "--format", "json"]
    t0 = time.perf_counter()
    rc = main(argv)
    return rc, time.perf_counter() - t0


def _probe_conditioning(N: int) -> dict:
    """conditional_update on a fresh factoring state at 1 and 2 threads."""
    state = ensemble.init_uniform_factoring(N)
    binned = state.layout == "binned"
    params, alpha = dynamics.OscillatorParams(), dynamics.MarkerAmplitude(2.0)
    times = [2.0 * math.pi * (k + 0.5) / (_PROBE_CALLS + 1) for k in range(_PROBE_CALLS + 1)]
    saved = os.environ.get("HOAMP_THREADS")
    ns = {}
    try:
        for threads in (1, 2):
            os.environ["HOAMP_THREADS"] = str(threads)
            walls = []
            for t in times:            # the first call is a warm-up
                t0 = time.perf_counter()
                ensemble.conditional_update(state, params, alpha, N, t, in_place=binned)
                walls.append(time.perf_counter() - t0)
            ns[threads] = 1e9 * statistics.median(walls[1:]) / _rows(state)
    finally:
        if saved is None:
            os.environ.pop("HOAMP_THREADS", None)
        else:
            os.environ["HOAMP_THREADS"] = saved
    if binned:
        bytes_per_row = state.keys.itemsize + 2 * state.mass.itemsize
    else:
        bytes_per_row = state.tuples.itemsize * state.arity + 2 * state.weights.itemsize
    return {
        "ensemble.conditional_update.ns_per_row.t1": ns[1],
        "ensemble.conditional_update.ns_per_row.t2": ns[2],
        "ensemble.conditional_update.speedup_2t": ns[1] / ns[2],
        "ensemble.conditional_update.bytes_per_row": float(bytes_per_row),
    }


def _median_ms(values: list) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def _layer_metrics(tr: Tracer, spec: dict, report, report_path: str) -> dict:
    m = dict.fromkeys(PER_LAYER, 0.0)
    m["dynamics.phase_delta_batch.ns_per_elem"] = tr.per_unit("dynamics.phase_delta_batch", 1e9)
    m["dynamics.phase_delta_batch.calls"] = float(len(tr.of("dynamics.phase_delta_batch")))
    m["dynamics.eps_squared_batch.ns_per_elem"] = tr.per_unit("dynamics.eps_squared_batch", 1e9)
    m["dynamics.epsilon_batch.ns_per_elem"] = tr.per_unit("dynamics.epsilon_batch", 1e9)
    m["ensemble.init_uniform_factoring.s"] = tr.total_s("state.init_uniform_factoring")
    built = [s["kept"] for s in tr.spans if s["name"].startswith("state.")]
    if built:
        m["ensemble.rows"] = float(built[0]["rows"])
        m["ensemble.rows_per_tuple"] = built[0]["rows"] / spec["tuples"]
        m["ensemble.state_mb"] = built[0]["nbytes"] / 2**20
    fid = tr.of("ensemble.fidelity")
    if fid:
        m["ensemble.fidelity.ms_per_call"] = 1e3 * tr.total_s("ensemble.fidelity") / len(fid)
    iters = {s["id"]: s["s"] for s in tr.of("factoring.run_iteration")}
    if iters:
        in_iters = math.fsum(s["s"] for s in fid if s["parent"] in iters)
        m["ensemble.fidelity.iter_share"] = in_iters / math.fsum(iters.values())
    m["ensemble.apply_entry_multipliers.ns_per_row"] = tr.per_unit(
        "ensemble.apply_entry_multipliers", 1e9)
    m["ensemble.sample.ms"] = 1e3 * tr.total_s("ensemble.sample")
    m["factoring.run_iteration.ms_p50"] = _median_ms(
        [s["s"] for s in tr.of("factoring.run_iteration")])
    m["factoring.run_iteration.self_ms"] = _median_ms(tr.self_s("factoring.run_iteration"))
    if spec["kind"] == "factor":
        m["factoring.resonant_iters"] = float(sum(r.resonant for r in report.records))
    m["search.apply_black_box.s"] = tr.total_s("search.apply_black_box")
    m["search.oracle_calls"] = float(tr.counts.get("search.oracle_calls", 0))
    m["search.search_iteration.ms"] = _median_ms(
        [s["s"] for s in tr.of("search.search_iteration")])
    if spec["kind"] == "search":
        m["search.run_search.residual_s"] = math.fsum(tr.self_s("run"))
    m["constraints.evaluate_batch.ns_per_tuple"] = tr.per_unit("constraints.evaluate_batch", 1e9)
    m["solver.build_accepted_sets.s"] = tr.total_s("solver.build_accepted_sets")
    m["solver.constraint_multipliers.ns_per_pair"] = tr.per_unit(
        "solver.constraint_multipliers", 1e9)
    m["solver.angle_pairs"] = float(sum(s["size"] for s in tr.of("solver.constraint_multipliers")))
    m["solver.solver_iteration.ms"] = _median_ms([s["s"] for s in tr.of("solver.solver_iteration")])
    m["reporting.write_json.ms"] = 1e3 * tr.total_s("reporting.write_json")
    m["reporting.report_bytes"] = float(os.path.getsize(report_path))
    m["cli.main.overhead_ms"] = 1e3 * (tr.total_s("cli.main") - tr.total_s("run"))
    return m


def replay(spec: dict) -> dict:
    """The same run untraced, traced and untraced again, then the layer probes."""
    with tempfile.TemporaryDirectory(dir=spec["out_dir"]) as tmp:
        traced_dir = os.path.join(tmp, "traced")
        rc_before, before_s = _cli_call(hoamp.cli.main, spec, os.path.join(tmp, "before"))
        tr = Tracer()
        install(tr)
        try:
            rc, traced_s = _cli_call(tr.wrap("cli.main", hoamp.cli.main), spec, traced_dir)
        finally:
            tr.uninstall()
        rc_after, after_s = _cli_call(hoamp.cli.main, spec, os.path.join(tmp, "after"))
        untraced_s = (before_s + after_s) / 2
        runs = tr.of("run")
        if rc != 0 or rc_before != 0 or rc_after != 0 or not runs:
            return {"ok": False, "detail": f"exit codes {rc_before}, {rc}, {rc_after}"}
        report = runs[0]["kept"]
        (name,) = os.listdir(traced_dir)
        report_path = os.path.join(traced_dir, name)
        with open(report_path) as fh:
            ok, _, _, detail = workloads.check_report(spec, json.load(fh))
        metrics = _layer_metrics(tr, spec, report, report_path)

        csv_path = os.path.join(tmp, "report.csv")
        t0 = time.perf_counter()
        reporting.write_iteration_csv(csv_path, report, {"command": spec["kind"]})
        metrics["reporting.write_iteration_csv.ms"] = 1e3 * (time.perf_counter() - t0)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    if spec["kind"] == "factor":
        metrics.update(_probe_conditioning(spec["N"]))
    metrics = {k: {"value": metrics[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
    return {"ok": ok, "detail": detail, "metrics": metrics, "untraced_s": untraced_s,
            "traced_s": traced_s, "spans": len(tr.spans)}
