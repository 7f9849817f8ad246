"""The benchmark's four workloads: generated CLI invocations and their checks.

A workload turns a seeded ``random.Random`` into an endless sequence of
*rounds*.  A round is a list of passes and a pass is a list of ``Op``: one
``composite_coder.cli.main`` invocation, its work in the workload's unit
(counted from the inputs, never from the program) and a check of its output.
Every drawn parameter is stratified over its range (see ``Strata``), so two
runs with different seeds measure nearly the same mix of work; a run times a
fixed number of whole rounds.  ``tiny=True`` shrinks every size for the smoke run and the warm-up.

Checks raise ``CheckError``.  They recompute a seeded sample of rows through
the package's scalar public API, so they must run with tracing paused.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from composite_coder import bss_system, channels, gaussian_system, specfn

TOL = 1e-9
SAMPLE_ROWS = 4


class CheckError(Exception):
    """An invocation's output broke a documented invariant."""


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    units: int
    check: Callable[[str], None]


Round = list[list[Op]]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    rounds: Callable[[random.Random, bool], Iterator[Round]]
    # wall seconds of one round, checks included, on the reference machine
    # (2-vCPU Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6)
    round_s: float


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Strata:
    """Stratified draws of one parameter: n values per round, one per stratum.

    Round r puts one value in each of n equal strata of [lo, hi] (of its log
    with ``log=True``), all at the offset (u + r * golden ratio) mod 1 within
    their stratum, in shuffled order; u comes from the seed.  Those offsets
    spread evenly over any number of rounds, so every run covers the whole
    range, and its cost depends little on the seed.
    """

    def __init__(self, rng: random.Random, lo: float, hi: float, n: int, log: bool = False) -> None:
        self.rng, self.n, self.log = rng, n, log
        self.lo, self.hi = (math.log(lo), math.log(hi)) if log else (lo, hi)
        self.offset = rng.random()

    def draw(self) -> list[float]:
        self.offset = (self.offset + GOLDEN) % 1.0
        values = [self.lo + (self.hi - self.lo) * (i + self.offset) / self.n for i in range(self.n)]
        self.rng.shuffle(values)
        return [math.exp(v) for v in values] if self.log else values


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def close(got: float, want: float, rel: float = TOL, abs_: float = TOL) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=abs_)


# ---------------------------------------------------------------------------
# table parsing and the checks every table shares
# ---------------------------------------------------------------------------


def parse_csv(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    meta: dict[str, str] = {}
    lines = text.split("\r\n")
    start = 0
    while start < len(lines) and lines[start].startswith("# "):
        key, _, value = lines[start][2:].partition("=")
        meta[key] = value
        start += 1
    rows = list(csv.reader(io.StringIO("\r\n".join(lines[start:]))))
    require(bool(rows), "table has no header")
    return meta, rows[0], rows[1:]


def parse_json(text: str) -> tuple[dict[str, str], list[str], list[list[object]]]:
    doc = json.loads(text)
    require(sorted(doc) == ["columns", "metadata", "rows"], "unexpected JSON keys")
    return doc["metadata"], doc["columns"], doc["rows"]


def check_table(meta: dict[str, str], columns: list[str], rows: list, command: str,
                want_columns: list[str], want_rows: Optional[int] = None) -> None:
    require(meta.get("command") == command, f"metadata command {meta.get('command')!r}")
    digest = hashlib.sha256(meta.get("parameters", "").encode()).hexdigest()
    require(meta.get("config_sha256") == digest, "config_sha256 does not match parameters")
    require(columns == want_columns, f"columns {columns}")
    require(all(len(row) == len(columns) for row in rows), "row arity")
    if want_rows is not None:
        require(len(rows) == want_rows, f"{len(rows)} rows, expected {want_rows}")


def number(cell: object) -> float:
    """A finite numeric cell (CSV string or JSON number)."""
    try:
        value = float(cell)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise CheckError(f"not a number: {cell!r}") from None
    require(math.isfinite(value), f"not finite: {cell!r}")
    return value


def optional(cell: object) -> Optional[float]:
    return None if cell in ("", None) else number(cell)


# ---------------------------------------------------------------------------
# bss-tables
# ---------------------------------------------------------------------------

BSS_GRIDS = (33, 65, 129)
FRONTIER_P = 101
FRONTIER_GRID = 129
INTERFACE_GRID = 65


def _layered(ch: channels.CompositeBsc, scheme: str, beta: float, rho: Optional[float]):
    if scheme == "broadcast":
        return bss_system.broadcast_scheme(ch, beta)
    return bss_system.residue_splitting_scheme(ch, beta, rho)


def check_region(rng: random.Random, ch: channels.CompositeBsc, grid: int) -> Callable[[str], None]:
    picks = [rng.random() for _ in range(SAMPLE_ROWS)]

    def check(text: str) -> None:
        meta, columns, rows = parse_json(text)
        check_table(meta, columns, rows, "bss-region",
                    ["scheme", "param1", "param2", "D1", "D2", "on_hull"], grid * grid + grid + 4)
        for row in rows:
            d1, d2 = number(row[3]), number(row[4])
            require(-1e-12 <= d1 <= d2 <= 0.5 + 1e-12, f"D1 <= D2 <= 1/2 broken: {row}")
            require(row[5] in (0, 1), f"on_hull {row[5]!r}")
        require(any(row[5] == 1 for row in rows), "no row on the hull")
        layered = [row for row in rows if row[0] in ("broadcast", "residue_splitting")]
        for pick in picks:
            row = layered[int(pick * len(layered))]
            e = _layered(ch, row[0], number(row[1]), optional(row[2]))
            require(close(number(row[3]), e.d1) and close(number(row[4]), e.d2),
                    f"region row {row} != ({e.d1}, {e.d2})")

    return check


def check_frontier(rng: random.Random, ch: channels.CompositeBsc, n_p: int) -> Callable[[str], None]:
    picks = [rng.randrange(n_p) for _ in range(SAMPLE_ROWS)]
    families = ("broadcast", "residue_splitting", "systematic_good", "systematic_bad")

    def check(text: str) -> None:
        meta, columns, rows = parse_csv(text)
        check_table(meta, columns, rows, "bss-frontier",
                    ["p", "De_broadcast", "De_residue", "De_sys_good", "De_sys_bad", "best_scheme"],
                    n_p)
        for i, row in enumerate(rows):
            require(close(number(row[0]), i / (n_p - 1)), f"p column {row[0]!r}")
            de = [number(v) for v in row[1:5]]
            require(all(0.0 <= v <= 0.5 + 1e-12 for v in de), f"De outside [0, 1/2]: {row}")
            require(row[5] in families, f"best_scheme {row[5]!r}")
            require(de[families.index(row[5])] <= min(de) + 1e-12, f"best_scheme not best: {row}")
        good, bad = bss_system.systematic_scheme_good(ch), bss_system.systematic_scheme_bad(ch)
        for i in picks:
            p = number(rows[i][0])
            for e, cell in ((good, rows[i][3]), (bad, rows[i][4])):
                want = (1.0 - p) * e.d1 + p * e.d2
                require(close(number(cell), want), f"frontier row {rows[i]} != {want}")

    return check


def check_interface(rng: random.Random, ch: channels.CompositeBsc, grid: int) -> Callable[[str], None]:
    picks = [rng.random() for _ in range(SAMPLE_ROWS)]

    def check(text: str) -> None:
        meta, columns, rows = parse_csv(text)
        check_table(meta, columns, rows, "bss-interface",
                    ["scheme", "param1", "param2", "Kt", "Kr", "De"])
        for row in rows:
            for cell in row[3:5]:
                require(cell == "" or number(cell) >= 0.0, f"negative complexity: {row}")
            require(0.0 <= number(row[5]) <= 0.5 + 1e-12, f"De outside [0, 1/2]: {row}")
        layered = [row for row in rows if row[0] in ("broadcast", "residue_splitting")]
        require(len(layered) == grid * grid + grid, f"{len(layered)} swept rows")
        for pick in picks:
            row = layered[int(pick * len(layered))]
            e = _layered(ch, row[0], number(row[1]), optional(row[2]))
            got = [number(v) for v in row[3:6]]
            require(all(close(g, w) for g, w in zip(got, (e.kt, e.kr, e.expected))),
                    f"interface row {row} != ({e.kt}, {e.kr}, {e.expected})")

    return check


def bss_rounds(rng: random.Random, tiny: bool) -> Iterator[Round]:
    """Composite-BSC operating points, one per pass, swept by the three table commands.

    The points lie around the reference point (0.25, 0.45, p = 1/2, b = 2),
    with alpha1 < alpha2 < 1/2 and b*(1 - h(alpha1)) < 1 (the lossy regime the
    BSC analysis assumes), so no invocation fails.  The sweep cost falls as b
    grows (more rates reach one bit, which needs no entropy inversion), so b
    stays within [1.8, 2.2] to keep the cost of a round nearly seed-free.
    """
    grids = (5, 9, 17) if tiny else BSS_GRIDS
    n_p = 11 if tiny else FRONTIER_P
    frontier_grid = 9 if tiny else FRONTIER_GRID
    interface_grid = 9 if tiny else INTERFACE_GRID
    n = len(grids)
    strata = [Strata(rng, 0.20, 0.30, n), Strata(rng, 0.05, 0.15, n),
              Strata(rng, 0.1, 0.9, n), Strata(rng, 1.8, 2.2, n)]
    while True:
        order = list(grids)
        rng.shuffle(order)
        passes = []
        for grid, alpha1, gap, p, b in zip(order, *(s.draw() for s in strata)):
            alpha2 = alpha1 + gap
            ch = channels.CompositeBsc(alpha1, alpha2, p, b)
            point = ("--alpha1", repr(alpha1), "--alpha2", repr(alpha2), "--b", repr(b))
            passes.append([
                Op(("bss-region", "--grid", str(grid), "--format", "json", *point),
                   grid * grid + grid + 4, check_region(rng, ch, grid)),
                Op(("bss-frontier", "--p-grid", f"0:1:{n_p}", "--grid", str(frontier_grid), *point),
                   frontier_grid * frontier_grid + frontier_grid + 2,
                   check_frontier(rng, ch, n_p)),
                Op(("bss-interface", "--grid", str(interface_grid), "--p", repr(p), *point),
                   2 * (interface_grid * interface_grid + interface_grid + 2),
                   check_interface(rng, ch, interface_grid)),
            ])
        yield passes


# ---------------------------------------------------------------------------
# gaussian-sweep
# ---------------------------------------------------------------------------

GAUSSIAN_CALLS = 3
GAUSSIAN_POINTS = 12
A_RANGE = (1e-2, 1e5)  # a = P * gamma_bar; every point evaluates in this range


def check_selfcheck(text: str) -> None:
    lines = text.strip().split("\n")
    require(lines[-1].endswith(" checks, 0 failures"), f"selfcheck summary {lines[-1]!r}")
    require(all("  PASS  " in line for line in lines[:-1]), "selfcheck line not PASS")


def check_compare(rng: random.Random, gamma_bar: float, powers: list[float]) -> Callable[[str], None]:
    picks = [rng.randrange(len(powers)) for _ in range(2)]

    def check(text: str) -> None:
        meta, columns, rows = parse_csv(text)
        check_table(meta, columns, rows, "gaussian-compare",
                    ["P", "De_uncoded", "De_outage_sep", "De_broadcast"], len(powers))
        for row, power in zip(rows, powers):
            require(close(number(row[0]), power, abs_=0.0), f"P column {row[0]!r}")
            uncoded, outage, broadcast = (number(v) for v in row[1:4])
            require(0.0 < uncoded <= broadcast <= outage <= 1.0, f"scheme ordering: {row}")
        for i in picks:
            a = powers[i] * gamma_bar
            direct = specfn.integrate(
                lambda g: math.exp(-g) / (1.0 + a * g), 0.0, math.inf, tol=1e-13
            )
            require(close(number(rows[i][1]), direct, abs_=0.0),
                    f"De_uncoded {rows[i][1]} != direct average {direct}")
            sys_ = channels.RayleighSystem(1.0, powers[i], gamma_bar)
            outage = gaussian_system.optimal_outage_for_distortion(sys_)[1]
            require(close(number(rows[i][2]), outage, abs_=0.0),
                    f"De_outage_sep {rows[i][2]} != {outage}")

    return check


def gaussian_rounds(rng: random.Random, tiny: bool) -> Iterator[Round]:
    """One pass per round: selfcheck, then gaussian-compare at stratified gamma_bar.

    gamma_bar is log-uniform in [0.25, 4]; the explicit power grid is
    log-spaced so that a = P * gamma_bar covers A_RANGE.
    """
    points = 3 if tiny else GAUSSIAN_POINTS
    lo, hi = (1e-1, 1e1) if tiny else A_RANGE
    gamma_bars = Strata(rng, 0.25, 4.0, GAUSSIAN_CALLS, log=True)
    while True:
        ops = [Op(("selfcheck",), 1, check_selfcheck)]
        for gamma_bar in gamma_bars.draw():
            powers = [lo * (hi / lo) ** (k / (points - 1)) / gamma_bar for k in range(points)]
            ops.append(Op(
                ("gaussian-compare", "--gamma-bar", repr(gamma_bar),
                 "--p-grid", ",".join(repr(p) for p in powers)),
                points, check_compare(rng, gamma_bar, powers),
            ))
        yield [ops]


# ---------------------------------------------------------------------------
# mc: superposition and the small experiments
# ---------------------------------------------------------------------------

MC_COLUMNS = ["experiment", "param", "blocklength", "trials", "mean", "half_width",
              "target", "pass_3sigma"]
# two-sided rows miss the program's own 3-sigma flag with probability 0.27%
# even when correct, so their target is checked at 5 half-widths instead
TWO_SIDED_SIGMAS = 5.0


def check_mc(experiment: str, trials: int, targets: list[Optional[float]],
             two_sided: bool) -> Callable[[str], None]:
    def check(text: str) -> None:
        meta, columns, rows = parse_csv(text)
        check_table(meta, columns, rows, "mc", MC_COLUMNS, len(targets))
        for row, want in zip(rows, targets):
            require(row[0] == experiment and int(row[3]) == trials, f"mc row {row}")
            mean, half = number(row[4]), number(row[5])
            require(0.0 <= mean and half >= 0.0, f"mc row {row}")
            if want is None:
                require(row[6] == "" and row[7] == "" and mean <= 1.0, f"mc row {row}")
                continue
            require(close(number(row[6]), want), f"target {row[6]} != {want}")
            if two_sided:
                flag = "1" if abs(mean - want) <= 3.0 * half else "0"
                require(row[7] == flag, f"pass_3sigma {row[7]!r} disagrees with its rule: {row}")
                require(abs(mean - want) <= TWO_SIDED_SIGMAS * half, f"mean off target: {row}")
            else:
                require(row[7] == "1", f"pass_3sigma is not 1: {row}")

    return check


def superposition_rounds(rng: random.Random, tiny: bool) -> Iterator[Round]:
    """Four superposition runs per round at stratified (alpha1, alpha2).

    alpha1 in [0.25, 0.28] and alpha2 in [0.35, 0.45] keep the cloud
    codebook at 1.9k-20.7k words and the base codebook at 2-387 words for
    m = 256; alpha1 = 0.22 would already need 343k words.  The lowest alpha1
    stratum always runs at 0.25, the largest codebook of the range, so every
    run reaches the range's peak memory.
    """
    trials = 5 if tiny else 200
    per_op = 3 * trials  # blocklengths 64, 128, 256
    alpha1_strata, alpha2_strata = Strata(rng, 0.25, 0.28, 4), Strata(rng, 0.35, 0.45, 4)
    while True:
        # heaviest cloud codebook first, so its second run puts 2 of every 5
        # invocations in the top stratum and the tail falls inside it; the
        # largest base codebook (smallest alpha2) goes with the smallest cloud
        # codebook, which evens out the cost of the other invocations
        alpha1s = sorted(0.25 if a < 0.2575 else a for a in alpha1_strata.draw())
        ops = []
        for alpha1, alpha2 in zip(alpha1s, sorted(alpha2_strata.draw(), reverse=True)):
            argv = ("mc", "superposition", "--trials", str(trials), "--seed",
                    str(rng.randrange(2**32)), "--alpha1", repr(alpha1), "--alpha2", repr(alpha2))
            if tiny:
                argv += ("--blocklength", "64")
            ops.append(Op(argv, trials if tiny else per_op,
                          check_mc("superposition", trials, [None, None] * (1 if tiny else 3),
                                   two_sided=False)))
        yield [ops]


def small_rounds(rng: random.Random, tiny: bool) -> Iterator[Round]:
    """The four small experiments at their default parameters and fresh seeds."""
    trials = 20 if tiny else 2000
    rate = specfn.bss_distortion_rate
    gaussian_targets = [
        gaussian_system.uncoded_state_distortion(channels.RayleighSystem(1.0, 1.0, 1.0), g)
        for g in (0.5, 1.0, 2.0)
    ]
    experiments = (
        ("uncoded-bsc", [0.25], True),
        ("uncoded-gaussian", gaussian_targets, True),
        ("quantizer", [rate(0.5)] * 3, False),
        ("msvq", [rate(0.5), rate(0.75)], False),
    )
    while True:
        ops = []
        for name, targets, two_sided in experiments:
            argv = ("mc", name, "--trials", str(trials), "--seed", str(rng.randrange(2**32)))
            runs = 1 if name in ("uncoded-bsc", "msvq") else len(targets)
            ops.append(Op(argv, runs * trials, check_mc(name, trials, targets, two_sided)))
        yield [ops]


def mc_rounds(rng: random.Random, tiny: bool) -> Iterator[Round]:
    """A superposition pass and a small-experiment pass per round.

    The two cost regimes of montecarlo share one workload: codebooks of up to
    20.7k words where the distance kernel dominates, and codebooks of at most
    2^8 words where per-trial overhead dominates.
    """
    superposition, small = superposition_rounds(rng, tiny), small_rounds(rng, tiny)
    while True:
        yield next(superposition) + next(small)


# why each workload exists is recorded in BENCHMARK.json and bench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bss-tables", "scheme evaluations", bss_rounds, 7.0),
        Workload("gaussian-sweep", "power points", gaussian_rounds, 5.3),
        Workload("mc", "trials", mc_rounds, 3.8),
    )
}
