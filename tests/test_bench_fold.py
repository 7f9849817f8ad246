"""tools/bench_fold.py on synthetic bench/run.py outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_fold.py"
_spec = importlib.util.spec_from_file_location("bench_fold", _PATH)
bench_fold = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_fold)


def _write_run(path, sha, seed, work_per_s, peak_rss_mb):
    record = {"workload": "bss-tables", "seed": seed, "trace": 0, "git_sha": sha,
              "python": "3.11.7", "numpy": "2.4.6", "nproc": 2}
    result = {"correct": True, "attempted": 40, "failed": 0, "metrics": {
        "work_per_s": {"value": work_per_s, "unit": "units/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }}
    path.write_text("run record " + json.dumps(record) + "\n" + json.dumps(result) + "\n")
    return path


def test_folds_two_pairs(tmp_path):
    parent = [_write_run(tmp_path / "p1.txt", "aaa", 1, 100.0, 60.0),
              _write_run(tmp_path / "p2.txt", "aaa", 2, 120.0, 62.0)]
    # the change wins work_per_s in one pair and ties it in the other
    change = [_write_run(tmp_path / "c2.txt", "bbb", 2, 120.0, 61.0),
              _write_run(tmp_path / "c1.txt", "bbb", 1, 150.0, 63.0)]
    doc = bench_fold.fold("t", [bench_fold.read_run(p) for p in parent],
                          [bench_fold.read_run(p) for p in change])
    assert doc["parent"] == {"git_sha": ["aaa"], "python": ["3.11.7"], "numpy": ["2.4.6"],
                             "nproc": ["2"]}
    assert doc["change"]["git_sha"] == ["bbb"]
    entry = doc["workloads"]["bss-tables"]
    assert entry["seeds"] == [1, 2] and entry["pairs"] == 2
    work = entry["metrics"]["work_per_s"]
    assert work["better"] == "higher" and work["change_won"] == 1
    assert work["parent"] == {"median": 110.0, "q1": 105.0, "q3": 115.0}
    assert work["change"] == {"median": 135.0, "q1": 127.5, "q3": 142.5}
    rss = entry["metrics"]["peak_rss_mb"]
    assert rss["better"] == "lower" and rss["change_won"] == 1


def test_unpaired_run_refused(tmp_path):
    parent = [bench_fold.read_run(_write_run(tmp_path / "p.txt", "aaa", 1, 1.0, 1.0))]
    change = [bench_fold.read_run(_write_run(tmp_path / "c.txt", "bbb", 2, 1.0, 1.0))]
    with pytest.raises(ValueError, match="without a partner"):
        bench_fold.fold("t", parent, change)


def test_output_without_result_line_refused(tmp_path):
    path = tmp_path / "cut.txt"
    path.write_text('run record {"workload": "mc"}\n')
    with pytest.raises(ValueError, match="no run record"):
        bench_fold.read_run(path)
