"""Benchmark of the composite-coder command line, end to end and per layer.

Usage, from the root of a source checkout (nothing needs installing):

    python3 bench/run.py --workload bss-tables --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: each
``composite_coder.cli.main(argv)`` invocation starts when the previous one
has returned and been checked.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` replays one round untraced and traced, in turns, and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run record.  Run records and traced spans are also written
to ``.bench_out/`` in the checkout.  See bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS_ENV = "COMPOSITE_CODER_THREADS"
SETUP_REPEATS = 7
MIN_SAMPLES = 11  # the tail percentile needs 10 samples above it

# the package must come from this checkout, never from an installed copy
sys.path.insert(0, str(SRC))
try:
    import composite_coder
    from composite_coder import cli
except ImportError as exc:
    sys.exit(f"cannot import composite_coder from {SRC}: {exc}")
if not Path(composite_coder.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"composite_coder was imported from {composite_coder.__file__}, not {SRC}")

import numpy

import probe
import spans
from workloads import WORKLOADS, CheckError, Op, Workload

MODULES = {name: importlib.import_module(f"composite_coder.{name}") for name in spans.MODULES}


def invoke(argv: tuple[str, ...]) -> tuple[Optional[int], str, float]:
    """One cli.main call: exit code (None if it raised), stdout text, seconds."""
    out = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code: Optional[int] = cli.main(list(argv))
        except Exception:  # a traceback is a failed invocation, not a crashed benchmark
            code = None
            print(traceback.format_exc(), file=sys.__stderr__)
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), seconds


class Loop:
    """Runs rounds of ops, checks every output and keeps the samples."""

    def __init__(self, rec: Optional[spans.Recorder] = None) -> None:
        self.rec = rec
        self.samples: list[float] = []
        self.labels: list[str] = []
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.outputs: list[str] = []

    def op(self, argv: tuple[str, ...], check) -> Optional[str]:
        if self.rec is None:
            code, text, seconds = invoke(argv)
        else:
            code, text, seconds = self.rec.run_op(argv[0], lambda: invoke(argv))
        self.attempted += 1
        self.samples.append(seconds)
        self.labels.append(argv[0] if argv[0] != "mc" else argv[1])
        try:
            if code != 0:
                raise CheckError(f"exit code {code}")
            check(text)
        except CheckError as exc:
            self.failed += 1
            print(f"check failed: {' '.join(argv)[:200]}: {str(exc)[:300]}", file=sys.stderr)
            return None
        return text

    def run_round(self, passes: list[list[Op]], expect: Optional[list[str]] = None) -> float:
        """Run one round; with ``expect``, every output must equal the given one."""
        outputs: list[str] = []
        started = sum(self.samples)
        for ops in passes:
            for i, op in enumerate(ops):
                want = expect[len(outputs)] if expect is not None else None
                text = self.op(op.argv, op.check if want is None else _same_as(want))
                outputs.append(text or "")
                self.units += op.units
                if i == 0:
                    # the first op of each pass runs twice and must repeat byte for byte
                    self.op(op.argv, _same_as(text))
                    outputs.append(text or "")
                    self.units += op.units
        self.outputs = outputs
        return sum(self.samples) - started


def _same_as(first: Optional[str]):
    def check(text: str) -> None:
        if first is None or text != first:
            raise CheckError("output differs from the first run of the same argv")

    return check


def setup_seconds(repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import composite_coder.cli and exit."""
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, "-c", "import composite_coder.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)  # writes bytecode caches
    times = []
    for _ in range(repeats):
        # no timeout here: with one, the wait polls in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples above it, and that percentile."""
    ordered = sorted(samples)
    k = len(ordered) - MIN_SAMPLES
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def git_sha() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def warm_up(workload: Workload, seed: int) -> None:
    """One tiny round, untimed, so lazy set-up inside the process is done."""
    Loop().run_round(next(workload.rounds(random.Random(seed), True)))


def untraced(workload: Workload, seed: int, seconds: float, tiny: bool) -> dict[str, Any]:
    warm_up(workload, seed)
    setup = setup_seconds(2 if tiny else SETUP_REPEATS)
    loop = Loop()
    rounds = workload.rounds(random.Random(seed), tiny)
    # a fixed number of rounds, sized to last --seconds on the reference
    # machine, so every run times the same multiset of invocation kinds
    target = max(1, round(seconds / workload.round_s))
    n_rounds = 0
    while n_rounds < target or len(loop.samples) < MIN_SAMPLES:
        loop.run_round(next(rounds))
        n_rounds += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_results = probe.run(invoke)
    tail_value, tail_pct = tail(loop.samples)
    busy = sum(loop.samples)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (loop.units / busy, "units/s"),
        "op_s_p50": (statistics.median(loop.samples), "s"),
        "op_s_tail": (tail_value, "s"),
        "peak_rss_mb": (peak_mb, "MiB"),
        "ops_ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "probe_failed": (sum(not r["ok"] for r in probe_results), "count"),
    }
    record = {
        "rounds": n_rounds,
        "work_units": loop.units,
        "work_unit": workload.unit,
        "busy_s": busy,
        "op_s_tail_percentile": tail_pct,
        "op_s_tail_samples": len(loop.samples),
        "setup_samples_s": setup,
        "probe": probe_results,
        "probe_unmeasured": probe.UNMEASURED,
        "op_samples": list(zip(loop.labels, loop.samples)),
    }
    return {"attempted": loop.attempted, "failed": loop.failed, "metrics": metrics,
            "record": record}


def traced(workload: Workload, seed: int, seconds: float, tiny: bool) -> dict[str, Any]:
    """Replays the first round untraced and traced, in turns, until --seconds pass."""
    passes = next(workload.rounds(random.Random(seed), tiny))
    warm_up(workload, seed)
    plain, rec = Loop(), spans.Recorder()
    traced_loop = Loop(rec)
    plain_s, traced_s = [], []
    deadline = time.perf_counter() + seconds
    while not traced_s or time.perf_counter() < deadline:
        plain_s.append(plain.run_round(passes, plain.outputs or None))
        tracer = spans.Tracer(rec, composite_coder, MODULES)
        try:
            traced_s.append(traced_loop.run_round(passes, plain.outputs))
        finally:
            tracer.remove()
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    metrics = {name: (value, units[name])
               for name, value in spans.layer_metrics(rec, len(traced_s), overhead).items()}
    return {
        "attempted": plain.attempted + traced_loop.attempted,
        "failed": plain.failed + traced_loop.failed,
        "metrics": metrics,
        "record": {"replays": len(traced_s), "plain_round_s": plain_s,
                   "traced_round_s": traced_s, "spans": rec.dump()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    threads_was_set = os.environ.pop(THREADS_ENV, None) is not None
    workload = WORKLOADS[args.workload]
    run = (traced if args.trace else untraced)(workload, args.seed, args.seconds, args.tiny)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        f"{THREADS_ENV}_absent": THREADS_ENV not in os.environ,
        f"{THREADS_ENV}_was_set_by_caller": threads_was_set,
        "attempted": run["attempted"],
        "failed": run["failed"],
        **run["record"],
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    summary = {k: v for k, v in record.items() if k not in ("spans", "op_samples")}
    print("run record " + json.dumps(summary))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
