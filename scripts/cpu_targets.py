#!/usr/bin/env python3
"""Do the golden reports keep their bytes on other numpy CPU targets?

numpy picks its SIMD loops by CPU at import, and NPY_DISABLE_CPU_FEATURES
masks dispatch targets for one process.  This runs each of
tests/test_reporting.py's GOLDEN_RUNS in child processes under three
settings: no mask, the AVX-512 targets masked (what an AVX2-only x86 CPU
runs), and X86_V3 masked as well.  Per run it prints whether the JSON
report equals its golden file byte for byte; where it does not, the first
differing byte, the worst difference of each float field in ULPs, and
whether the iterations, samples and solutions are equal.  A mask that
numpy refuses on this host (one naming a target its build does not
dispatch to, such as any x86 target on ARM) is reported and skipped.

    PYTHONPATH=src python scripts/cpu_targets.py

Exit status 0 when every run finished, whatever its bytes, and 1 when a
run failed.
"""

import json
import os
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from test_reporting import DATA, GOLDEN_RUNS, GRID_B7  # noqa: E402

AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
MASKS = (None, AVX512, AVX512 + " X86_V3")

# prints the dispatch targets numpy enabled; numpy warns (and ignores the
# mask) when it refuses one
PROBE = ("import json, numpy\n"
         "try:\n"
         "    from numpy._core import _multiarray_umath as m\n"
         "except ImportError:\n"
         "    from numpy.core import _multiarray_umath as m\n"
         "print(json.dumps([t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)]))")


def child_env(mask):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if mask:
        env["NPY_DISABLE_CPU_FEATURES"] = mask
    return env


def probe(mask):
    """(targets numpy dispatches to under the mask, or None, and its refusal)."""
    proc = subprocess.run([sys.executable, "-W", "always", "-c", PROBE], env=child_env(mask),
                          capture_output=True, text=True)
    refusal = " ".join(line.strip() for line in proc.stderr.splitlines()
                       if "cannot disable" in line or line.startswith("("))
    if proc.returncode or refusal:
        return None, refusal or proc.stderr.strip().splitlines()[-1]
    return json.loads(proc.stdout), ""


def ordered(x: float) -> int:
    """x's bit pattern as an integer that orders like the doubles, -0 == +0."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(1 << 63) - i


def float_ulps(a, b, path="", out=None) -> dict:
    """The largest ULP difference per float field of two report documents
    of one shape, list indices dropped from the field names; a field whose
    non-float values differ maps to None."""
    out = {} if out is None else out
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            float_ulps(a[key], b[key], f"{path}.{key}" if path else key, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            float_ulps(x, y, path + "[]", out)
    elif (isinstance(a, float) or isinstance(b, float)) and not isinstance(a, (bool, str)):
        d = abs(ordered(float(a)) - ordered(float(b)))
        if out.get(path, 0) is not None:
            out[path] = max(out.get(path, 0), d)
    elif a != b:
        out[path] = None
    return out


def outcome(doc) -> dict:
    """What a run decides, as opposed to the floats it reports."""
    return {"iterations": len(doc["records"]),
            "samples": (doc.get("sampled_tuple"), doc.get("sampled_factors")),
            "solutions": [s[0] for s in doc.get("solutions", [])]}


def compare(name, argv, mask, tmp) -> bool:
    out = os.path.join(tmp, name + "-" + (mask or "none").replace(" ", "-"))
    proc = subprocess.run([sys.executable, "-m", "hoamp.cli", *argv, "--out-dir", out,
                           "--format", "json"], env=child_env(mask), capture_output=True,
                          text=True)
    if proc.returncode:
        print(f"  {name}: exit {proc.returncode}: {proc.stderr.strip()}")
        return False
    (report,) = os.listdir(out)
    with open(os.path.join(out, report), "rb") as fh:
        got = fh.read()
    with open(os.path.join(DATA, name + ".json"), "rb") as fh:
        want = fh.read()
    if got == want:
        print(f"  {name}: identical ({len(got)} bytes)")
        return True
    first = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
                 min(len(got), len(want)))
    print(f"  {name}: differs from byte {first} on ({len(got)} bytes, golden {len(want)})")
    got_doc, want_doc = json.loads(got), json.loads(want)
    for field, ulps in sorted(float_ulps(got_doc, want_doc).items()):
        if ulps != 0:
            print(f"    {field}: " + ("values differ" if ulps is None else f"{ulps} ulp"))
    same = outcome(got_doc) == outcome(want_doc)
    print(f"    iterations, samples and solutions: {'equal' if same else 'DIFFER'}")
    return True


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        grid = os.path.join(tmp, "grid_b7.json")
        with open(grid, "w") as fh:
            json.dump(GRID_B7, fh)
        for mask in MASKS:
            targets, refusal = probe(mask)
            print(f"NPY_DISABLE_CPU_FEATURES={mask or '(unset)'}")
            if targets is None:
                print(f"  numpy refuses this mask here, skipped: {refusal}")
                continue
            print(f"  dispatch targets on: {' '.join(targets) or '(baseline only)'}")
            for name, argv in sorted(GOLDEN_RUNS.items()):
                ok &= compare(name, [a.replace("{grid}", grid) for a in argv], mask, tmp)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
