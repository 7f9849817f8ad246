"""Range probe: inputs at the edges of the documented range, each with its outcome.

Every documented input must either give finite output with exit code 0, or
exit with code 2 for an invalid configuration.  The inputs are the known
defects listed in ROADMAP.md plus one more extreme power point; at the time
the benchmark was written all six miss their documented outcome.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from workloads import CheckError, parse_csv

# (what the input exercises, argv, documented exit code)
INPUTS = [
    ("P*gamma_bar = 1e-3", ("gaussian-compare", "--p-grid", "0.001,0.001"), 0),
    ("power 1e7", ("gaussian-compare", "--p-grid", "1e7,1e7"), 0),
    ("alpha1 > alpha2", ("bss-region", "--alpha1", "0.45", "--alpha2", "0.25", "--grid", "9"), 2),
    ("seed -1", ("mc", "uncoded-bsc", "--seed", "-1", "--trials", "10"), 2),
    ("gamma_bar nan", ("gaussian-compare", "--gamma-bar", "nan", "--p-grid", "1,2"), 2),
    ("gamma_bar 4, power 1e6", ("gaussian-compare", "--gamma-bar", "4", "--p-grid", "1e6,1e6"), 0),
]

# a huge --grid is OOM-killed today; it must not run on a shared machine and
# stays unmeasured until the analytic sweeps have a work budget
UNMEASURED = ["bss-region with a huge --grid (out of memory instead of exit 4)"]


def _finite_table(text: str) -> bool:
    """The exit-0 inputs are gaussian-compare tables: every cell a finite number."""
    try:
        _, _, rows = parse_csv(text)
        return bool(rows) and all(math.isfinite(float(c)) for row in rows for c in row)
    except (CheckError, ValueError):
        return False


def run(invoke: Callable[[tuple[str, ...]], tuple[Optional[int], str, float]]) -> list[dict[str, Any]]:
    results = []
    for label, argv, want in INPUTS:
        code, text, seconds = invoke(argv)
        ok = code == want and (want != 0 or _finite_table(text))
        results.append({"input": label, "argv": list(argv), "want_exit": want,
                        "exit": code, "ok": ok, "seconds": seconds})
    return results
