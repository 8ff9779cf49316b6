"""One fresh benchmark process: ``python3 child.py <mode> <spec-json>``.

Modes:

* ``setup``: import ``hoamp.cli`` and report when it was ready;
* ``run``: additionally call ``hoamp.cli.main`` once, untraced, then measure
  this process's peak RSS and check the report it wrote;
* ``trace``: replay the run with spans around each layer (see tracing.py).

The result is one JSON object on the last line of standard output.  The
program's own output goes to standard error so that it cannot mix with it.
``ready`` is read from ``time.monotonic``, a clock shared by all processes,
so the parent turns it into set-up time by subtracting its spawn time.
"""

import contextlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import hoamp.cli  # noqa: E402

READY = time.monotonic()


def _read_report(out_dir: str) -> dict:
    (name,) = [f for f in os.listdir(out_dir) if f.endswith(".json")]
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def run_once(spec: dict) -> dict:
    """One untraced CLI call; the output check runs after the timed region."""
    import workloads

    out_dir = spec["out_dir"]
    argv = spec["argv"] + ["--out-dir", out_dir, "--format", "json"]
    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        rc = hoamp.cli.main(argv)
        wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"rc": rc, "wall_s": wall, "peak_rss_mb": peak_kb / 1024.0}
    if rc == 0:
        ok, mass, iterations, detail = workloads.check_report(spec, _read_report(out_dir))
        result.update(ok=ok, solution_mass=mass, iterations=iterations, detail=detail)
    else:
        result.update(ok=False, detail=f"exit code {rc}")
    return result


def main(argv) -> int:
    mode = argv[0]
    spec = json.loads(argv[1]) if len(argv) > 1 else {}
    if mode == "setup":
        result = {}
    elif mode == "run":
        result = run_once(spec)
    elif mode == "trace":
        import tracing
        with contextlib.redirect_stdout(sys.stderr):
            result = tracing.replay(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["ready"] = READY
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
