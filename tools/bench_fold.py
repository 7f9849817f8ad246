"""Fold saved ``bench/run.py`` outputs of a parent and a change into BENCH_<label>.json.

Usage, from the root of a source checkout:

    python3 tools/bench_fold.py mylabel --parent runs/parent-*.txt --change runs/change-*.txt

Each input file is the standard output of one ``bench/run.py`` run: its
``run record {...}`` line and the result line after it.  A parent run and a
change run form a pair when they share workload, seed and ``--trace``; every
run needs its partner.  For each workload the output holds, per metric, the
median and quartiles of each side and the number of pairs the change won
(ties count for neither side), with the direction each metric improves in
taken from ``BENCHMARK.json``.  Each side also records the git SHAs, Python
and numpy versions and ``nproc`` its runs reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
RECORD_PREFIX = "run record "


def read_run(path: Path) -> dict[str, Any]:
    """The run record and result of one saved bench/run.py stdout."""
    record: Optional[dict[str, Any]] = None
    result: Optional[dict[str, Any]] = None
    for line in path.read_text().splitlines():
        if line.startswith(RECORD_PREFIX):
            record = json.loads(line[len(RECORD_PREFIX):])
        elif line.startswith("{") and record is not None:
            result = json.loads(line)
    if record is None or result is None:
        raise ValueError(f"{path}: no run record followed by a result line")
    return {"record": record, "result": result, "path": str(path)}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _better() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def _side(runs: list[dict[str, Any]]) -> dict[str, list]:
    return {
        key: sorted({str(r["record"].get(key)) for r in runs})
        for key in ("git_sha", "python", "numpy", "nproc")
    }


def _key(run: dict[str, Any]) -> tuple[str, int, int]:
    rec = run["record"]
    return rec["workload"], rec["seed"], rec["trace"]


def _by_key(runs: list[dict[str, Any]], side: str) -> dict[tuple, dict[str, Any]]:
    keyed: dict[tuple, dict[str, Any]] = {}
    for run in runs:
        if _key(run) in keyed:
            raise ValueError(f"two {side} runs of {_key(run)}: {run['path']}")
        keyed[_key(run)] = run
    return keyed


def fold(label: str, parent: list[dict[str, Any]], change: list[dict[str, Any]]) -> dict:
    """The BENCH_<label>.json document for paired parent and change runs."""
    better = _better()
    before, after = _by_key(parent, "parent"), _by_key(change, "change")
    if set(before) != set(after):
        raise ValueError(f"runs without a partner: {sorted(set(before) ^ set(after))}")
    workloads: dict[str, Any] = {}
    for key in sorted(before):
        name = f"{key[0]}" + (" --trace 1" if key[2] else "")
        entry = workloads.setdefault(name, {"seeds": [], "pairs": 0, "metrics": {}})
        entry["seeds"].append(key[1])
        entry["pairs"] += 1
        for metric, p in before[key]["result"]["metrics"].items():
            c = after[key]["result"]["metrics"][metric]
            m = entry["metrics"].setdefault(
                metric, {"unit": p["unit"], "better": better.get(metric),
                         "parent": [], "change": [], "change_won": 0}
            )
            m["parent"].append(p["value"])
            m["change"].append(c["value"])
            if (m["better"] == "higher" and c["value"] > p["value"]) or (
                m["better"] == "lower" and c["value"] < p["value"]
            ):
                m["change_won"] += 1
    for entry in workloads.values():
        for m in entry["metrics"].values():
            m["parent"], m["change"] = quartiles(m["parent"]), quartiles(m["change"])
            if m["better"] is None:
                m["change_won"] = None
    return {"label": label, "parent": _side(parent), "change": _side(change),
            "workloads": workloads}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--parent", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    args = parser.parse_args(argv)
    try:
        doc = fold(args.label, [read_run(p) for p in args.parent],
                   [read_run(p) for p in args.change])
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_fold: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
