"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

    python3 bench/smoke.py

Checks that each run is correct and reports exactly the metrics, with the
units, that BENCHMARK.json declares.  Finishes in seconds; exits 1 on a
mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run
from workloads import WORKLOADS


def main() -> int:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", "1", "--seconds", "0.2",
                                 "--trace", str(trace), "--tiny"])
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = code == 0 and result["correct"] and units == declared[trace]
            print(f"{name:18s} trace={trace} attempted={result['attempted']:4d} "
                  f"{'ok' if ok else 'FAILED'}")
            if not ok:
                problems.append(f"{name} trace={trace}")
    for problem in problems:
        print("problem:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
