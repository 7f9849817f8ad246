"""Command-line front end emitting figure-ready CSV or JSON tables.

Commands
--------
gaussian-compare   expected distortion of the three Gaussian-channel schemes
                   over a transmit-power sweep
bss-region         achievable (D1, D2) pairs and region hull for the
                   composite-BSC schemes
bss-frontier       best scheme and per-family expected distortion versus the
                   bad-state probability, with exact crossover points
bss-interface      interface complexity versus expected distortion at one
                   operating point
mc <experiment>    Monte Carlo validation runs (uncoded-bsc,
                   uncoded-gaussian, quantizer, msvq, superposition)
selfcheck          internal identity and closed-form-versus-numeric checks

Configuration comes from flags or from a key=value file (--config); flags
win on conflict.  One table (_READS) gives the keys each command reads, with
``mc <experiment>`` a command of its own; a command rejects any other key,
``selfcheck`` every key.  Another (_KEYS) gives each key's one parser, range
and default text (_DEFAULT_TEXTS overrides three per command): a flag, a
--config value and a default are the same text to it, so a bad value is one
``config error:`` line either way.  Resolution rejects the unread keys, then
parses and range-checks the read ones into a Namespace (None for the rest),
then checks the quantities derived from them.
Identical configurations produce byte-identical output: metadata carries a
canonical parameter string and its hash, never a timestamp.  The string is
``command=``, then ``experiment=`` for mc, then each key of the command's
_READS row but ``out``, in _KEYS order, as ``key=str(value)``, joined by
``;``.  A --p-grid given as ``lo:hi:n`` is ``repr(lo):repr(hi):n`` there,
and one given as a comma list its values' ``.12g`` strings.

Output cells: in CSV a float is its ``.12g`` string and None an empty cell;
in JSON (indent 1) a float is its ``.12g``-rounded value in shortest
round-trip form, and NaN and None are ``null``.  A table is a list of
blocks of rows (``Block``) whose column entries are lists, float64 arrays
or one cell repeated down the block, as the commands have them; no command
builds a list per row.  The renderers walk the blocks in chunks of at most
_CHUNK_ROWS rows and format each entry of a chunk in one pass (a repeated
cell once), so rendering holds at most about 3x the output size in memory.

Exit codes: 0 success, 1 self-check failure, 2 configuration error,
3 numeric error, 4 work budget error (Monte Carlo, analytic sweep or
--p-grid length), 141 standard output closed early (``| head``).
Warnings print as one ``warning: ...`` line each on stderr.

Importing this module loads ``channels``, ``specfn``, ``bss_system`` and
``gaussian_system`` and, from the standard library, ``argparse`` (with ``re``
and ``gettext``), ``hashlib`` and ``enum``.  It does not import numpy: the
``bss-*`` commands load it through the array core of ``bss_system``, ``mc``
with ``montecarlo`` and ``selfcheck`` for its entropy roundtrip.  Nor does it
import ``dataclasses``, ``inspect`` or ``typing``: the classes on this path
are plain classes with ``__slots__``, and annotations are strings.  ``json``
is imported by ``render_json`` alone, so CSV output never loads it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import repeat

from . import __version__, bss_system, channels, gaussian_system, specfn
from .bss_system import Scheme

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4
EXIT_PIPE = 141  # 128 + SIGPIPE: the shell's status for a process a closed pipe killed

SWEEP_CAP = 2**20  # --p-grid points: the row count of a grid-1025 region

_NUMERIC_ERRORS = (ArithmeticError, ValueError)


class ConfigError(Exception):
    pass


class Block:
    """``rows`` consecutive rows of a table, one entry per column.

    An entry is a list of the block's cells, a float64 array of them (any
    object with ``.tolist``), or else one cell that every row of the block has.
    """

    __slots__ = ("rows", "entries")

    def __init__(self, rows: int, entries: tuple[object, ...]) -> None:
        self.rows, self.entries = rows, entries


def _is_sequence(entry: object) -> bool:
    return isinstance(entry, list) or hasattr(entry, "tolist")


class FigureTable:
    __slots__ = ("columns", "blocks", "metadata")

    def __init__(self, columns: list[str], blocks: list[Block], metadata: dict[str, str]) -> None:
        for block in blocks:
            if len(block.entries) != len(columns) or any(
                len(entry) != block.rows for entry in block.entries if _is_sequence(entry)
            ):
                raise AssertionError("block shape does not match the columns and its row count")
        self.columns, self.blocks, self.metadata = columns, blocks, metadata


_CHUNK_ROWS = 2048  # rows rendered at a time, which bounds the token working set
# json.dumps for JSON tokens, None for CSV ones (render_json alone imports json)
_Dumps = Callable[[object], str] | None


def _json_number(text: str, dumps: Callable[[object], str]) -> str:
    """JSON token of the float that a ``.12g`` string stands for, as json.dumps spells it."""
    if text.lstrip("-").isdigit():
        return text + ".0"
    value = float(text)
    # NaN is null; json.dumps gives Infinity, and repr where .12g and repr disagree:
    # positional for 1e12 <= |v| < 1e16, fewer digits for subnormals
    return "null" if math.isnan(value) else dumps(value)


def _float_tokens(values: Sequence[float], dumps: _Dumps) -> list[str]:
    """One ``%``-format pass at ``.12g`` over a list of floats."""
    tokens = (("%.12g\n" * len(values)) % tuple(values)).split("\n")
    tokens.pop()
    if dumps is not None:
        # a .12g string with a point and no exponent is already the shortest repr
        tokens = [t if "." in t and "e" not in t else _json_number(t, dumps) for t in tokens]
    return tokens


def _cell_token(value: object, dumps: _Dumps) -> str:
    """Token of a cell that is not a float: None, a string or an integer."""
    if dumps is not None:
        return dumps(value)
    if value is None:
        return ""
    text = str(value)
    if any(c in text for c in ',"\r\n'):  # what csv.QUOTE_MINIMAL quotes
        text = '"' + text.replace('"', '""') + '"'
    return text


def _mixed_tokens(cells: list[object], dumps: _Dumps) -> list[str]:
    """Tokens of a list of cells of several types; each distinct cell object is formatted once."""
    distinct = dict(zip(map(id, cells), cells))
    floats = [v for v in distinct.values() if isinstance(v, float)]
    others = [v for v in distinct.values() if not isinstance(v, float)]
    tokens = dict(zip(map(id, floats), _float_tokens(floats, dumps)))
    tokens.update((id(v), _cell_token(v, dumps)) for v in others)
    return list(map(tokens.__getitem__, map(id, cells)))


def _entry_tokens(entry: object, start: int, stop: int, dumps: _Dumps) -> list[str] | str:
    """Tokens of rows [start, stop) of a block entry, or the one token of a repeated cell."""
    if isinstance(entry, list):
        cells = entry[start:stop]
        kinds = set(map(type, cells))
        if kinds == {float}:
            return _float_tokens(cells, dumps)
        if kinds == {int}:
            return list(map(str, cells))  # str and json.dumps spell an int alike
        return _mixed_tokens(cells, dumps)
    if hasattr(entry, "tolist"):
        return _float_tokens(entry[start:stop].tolist(), dumps)
    if isinstance(entry, float):
        return _float_tokens([entry], dumps)[0]
    return _cell_token(entry, dumps)


def _chunks(table: FigureTable, dumps: _Dumps, sep: str) -> Iterator[Iterator[str]]:
    """Up to _CHUNK_ROWS rows of one block at a time, each row its tokens joined by ``sep``.

    A column whose entry is the same object over the same rows as in the
    previous chunk reuses that chunk's tokens.
    """
    # per column: the entry, rows and tokens of the last chunk
    last: list[tuple[object, object, list[str] | str]] = [(None, None, "")] * len(table.columns)
    for block in table.blocks:
        for start in range(0, block.rows, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, block.rows)
            columns: list[Iterable[str]] = []
            for i, entry in enumerate(block.entries):
                seen, span, tokens = last[i]
                if seen is not entry or span != (start, stop):
                    tokens = _entry_tokens(entry, start, stop, dumps)
                    last[i] = (entry, (start, stop), tokens)
                columns.append(repeat(tokens, stop - start) if isinstance(tokens, str) else tokens)
            yield map(sep.join, zip(*columns))


def render_csv(table: FigureTable) -> str:
    """CSV text: sorted ``# key=value`` metadata lines, the header, then the rows.

    Lines end in CRLF.  A float cell is its ``.12g`` string, None is an empty
    cell and any other cell is ``str(cell)``, quoted as ``csv.QUOTE_MINIMAL``
    quotes it (a one-column row whose cell is empty, which csv writes as
    ``""``, is the one difference, and no table has one column).
    """
    parts = [f"# {key}={table.metadata[key]}\r\n" for key in sorted(table.metadata)]
    parts.append(",".join(_cell_token(c, None) for c in table.columns) + "\r\n")
    for lines in _chunks(table, None, ","):
        parts.append("\r\n".join(lines))
        parts.append("\r\n")
    return "".join(parts)


def render_json(table: FigureTable) -> str:
    """JSON text in the layout of ``json.dumps(indent=1)`` plus a newline.

    The document is ``{"columns", "rows", "metadata"}`` with sorted metadata.
    A float cell is its ``.12g``-rounded value in shortest round-trip form,
    NaN and None are ``null`` and ±inf is ``±Infinity``.
    """
    import json  # here only: CSV, the default, never loads it

    columns = ",\n  ".join(map(json.dumps, table.columns))
    parts = ['{\n "columns": ' + (f"[\n  {columns}\n ]" if columns else "[]") + ",\n"]
    if any(block.rows for block in table.blocks):
        parts.append(' "rows": [\n  [\n   ')
        row_sep = "\n  ],\n  [\n   "
        for i, lines in enumerate(_chunks(table, json.dumps, ",\n   ")):
            if i:
                parts.append(row_sep)
            parts.append(row_sep.join(lines))
        parts.append("\n  ]\n ],\n")
    else:
        parts.append(' "rows": [],\n')
    meta = ",\n  ".join(
        f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(table.metadata.items())
    )
    parts.append(' "metadata": ' + (f"{{\n  {meta}\n }}" if meta else "{}") + "\n}\n")
    return "".join(parts)


def _metadata(cfg: argparse.Namespace, extra: dict[str, str] | None = None) -> dict[str, str]:
    # the parameter string of the module docstring, from the command's _READS row
    parts = [f"command={cfg.command}"]
    name = cfg.command
    if cfg.experiment is not None:
        parts.append(f"experiment={cfg.experiment}")
        name = f"mc {cfg.experiment}"
    for key in filter((_READS[name] - {"out"}).__contains__, _KEYS):
        value = getattr(cfg, key)
        parts.append(f"{key}={value.spec if key == 'p_grid' else value}")
    canonical = ";".join(parts)
    meta = {
        "command": cfg.command,
        "parameters": canonical,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "version": __version__,
    }
    if extra:
        meta.update(extra)
    return meta


def _check_sweep_length(n: int) -> None:
    if n > SWEEP_CAP:
        raise specfn.BudgetError(f"sweep of {n} points is over the cap of {SWEEP_CAP}")


class _Sweep(list):
    """The values of a sweep, and ``spec``, its spelling in the table metadata."""

    def __init__(self, values: list[float], spec: str) -> None:
        super().__init__(values)
        self.spec = spec


def _parse_grid_spec(text: str) -> list[float]:
    """Either 'lo:hi:n' or a comma-separated list of values.

    The sweep's spec is ``repr(lo):repr(hi):n`` for the one and its values'
    ``.12g`` strings joined by commas for the other.
    """
    text = text.strip()
    if not text:
        raise ConfigError("empty sweep specification")
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise ConfigError(f"grid spec must be lo:hi:n, got {text!r}")
        try:
            lo, hi, n = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError as exc:
            raise ConfigError(f"bad grid spec {text!r}") from exc
        if n < 2 or hi <= lo:
            raise ConfigError(f"grid spec needs hi > lo and n >= 2, got {text!r}")
        _check_sweep_length(n)
        step = (hi - lo) / (n - 1)
        values = [lo + i * step for i in range(n)]
        spec = f"{lo!r}:{hi!r}:{n}"
    else:
        _check_sweep_length(text.count(",") + 1)
        try:
            values = [float(v) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad grid values {text!r}") from exc
        if len(values) < 2:
            raise ConfigError("sweep needs at least 2 points")
        spec = ",".join(f"{v:.12g}" for v in values)
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"sweep values must be finite, got {text!r}")
    return _Sweep(values, spec)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gaussian_compare(cfg: argparse.Namespace) -> FigureTable:
    uncoded: list[object] = []
    outage: list[object] = []
    broadcast: list[object] = []
    for power in cfg.p_grid:
        sys_ = channels.RayleighSystem(sigma2=cfg.sigma2, power=power, gamma_bar=cfg.gamma_bar)
        _, de_outage = gaussian_system.optimal_outage_for_distortion(sys_)
        uncoded.append(gaussian_system.uncoded_expected_distortion(sys_))
        outage.append(de_outage)
        broadcast.append(gaussian_system.bc_expected_distortion(sys_))
    return FigureTable(
        columns=["P", "De_uncoded", "De_outage_sep", "De_broadcast"],
        blocks=[Block(len(cfg.p_grid), (cfg.p_grid, uncoded, outage, broadcast))],
        metadata=_metadata(cfg),
    )


def _bsc(cfg: argparse.Namespace) -> channels.CompositeBsc:
    return channels.CompositeBsc(alpha1=cfg.alpha1, alpha2=cfg.alpha2, p=cfg.p, b=cfg.b)


def _sweep_blocks(sweep: bss_system.LayeredSweep, *cells: Sequence[object]) -> list[Block]:
    """A sweep's rows: its scheme, its beta and rho entries, then ``cells`` of its points."""
    blocks: list[Block] = []
    start = 0
    for n, beta, rho in sweep.param_blocks():
        stop = start + n
        blocks.append(Block(n, (sweep.scheme.value, beta, rho, *(c[start:stop] for c in cells))))
        start = stop
    return blocks


def cmd_bss_region(cfg: argparse.Namespace) -> FigureTable:
    families = (Scheme.SHANNON, Scheme.OUTAGE, *bss_system.COMPARED_FAMILIES)
    sweeps = bss_system.sweep_families(_bsc(cfg), cfg.grid, families)
    hull = sweeps[Scheme.RESIDUE_SPLITTING].hull()
    blocks: list[Block] = []
    for sweep in sweeps.values():
        # a point is on the hull when the hull dominates it within 1e-9 relative but not by it
        near = bss_system.hull_dominates_array(hull, sweep.d1, sweep.d2, slack=1e-9)
        strictly = bss_system.hull_dominates_array(hull, sweep.d1, sweep.d2, slack=-1e-9)
        on_hull = (near & ~strictly).astype(int).tolist()
        blocks += _sweep_blocks(sweep, sweep.d1, sweep.d2, on_hull)
    return FigureTable(
        columns=["scheme", "param1", "param2", "D1", "D2", "on_hull"],
        blocks=blocks,
        metadata=_metadata(cfg),
    )


def cmd_bss_frontier(cfg: argparse.Namespace) -> FigureTable:
    frontier = bss_system.expected_distortion_frontier(_bsc(cfg), cfg.p_grid, grid=cfg.grid)
    names = [family.value for family in frontier.expected]
    columns = (
        frontier.p,
        *(frontier.expected[f] for f in bss_system.COMPARED_FAMILIES),
        [names[i] for i in frontier.winner.tolist()],
    )
    extra = {
        f"crossover.{i + 1}": f"{c.scheme_low.value}->{c.scheme_high.value}@{c.p:.6g}"
        for i, c in enumerate(frontier.crossovers)
    }
    return FigureTable(
        columns=["p", "De_broadcast", "De_residue", "De_sys_good", "De_sys_bad", "best_scheme"],
        blocks=[Block(frontier.p.size, columns)],
        metadata=_metadata(cfg, extra),
    )


def cmd_bss_interface(cfg: argparse.Namespace) -> FigureTable:
    sweeps = bss_system.sweep_families(_bsc(cfg), cfg.grid, bss_system.COMPARED_FAMILIES)
    blocks = [b for s in sweeps.values() for b in _sweep_blocks(s, s.kt, s.kr, s.expected)]
    for family, sweep in sweeps.items():
        stairs = bss_system.interface_staircases(sweep.kt, sweep.kr, sweep.expected)
        (kt, kt_de), (kr, kr_de) = stairs["kt"], stairs["kr"]
        blocks.append(Block(kt.size, (f"{family.value}:stair-kt", None, None, kt, None, kt_de)))
        blocks.append(Block(kr.size, (f"{family.value}:stair-kr", None, None, None, kr, kr_de)))
    return FigureTable(
        columns=["scheme", "param1", "param2", "Kt", "Kr", "De"],
        blocks=blocks,
        metadata=_metadata(cfg),
    )


def _uncoded_gains(gamma_bar: float) -> tuple[float, float, float]:
    """The channel gains mc uncoded-gaussian simulates."""
    return 0.5 * gamma_bar, gamma_bar, 2.0 * gamma_bar


def _mc_columns(cfg: argparse.Namespace) -> list[list[object]]:
    """The mc table's columns after the experiment name, one cell per report."""
    from . import montecarlo

    columns: list[list[object]] = [[] for _ in range(7)]

    def row(param: str, n: int, report: montecarlo.TrialReport, target: float | None,
            one_sided: bool = False) -> None:
        if target is None:
            ok: int | None = None
        elif one_sided:
            ok = 1 if report.mean >= target - 3.0 * report.half_width_95 else 0
        else:
            ok = 1 if abs(report.mean - target) <= 3.0 * report.half_width_95 else 0
        cells = (param, n, report.trials, report.mean, report.half_width_95, target, ok)
        for column, cell in zip(columns, cells):
            column.append(cell)

    if cfg.experiment == "uncoded-bsc":
        n = cfg.blocklength or 1000
        report = montecarlo.simulate_uncoded_bsc(
            montecarlo.TrialConfig(n, cfg.trials, cfg.seed), cfg.alpha1
        )
        row(f"alpha={cfg.alpha1:.6g}", n, report, cfg.alpha1)
    elif cfg.experiment == "uncoded-gaussian":
        n = cfg.blocklength or 1000
        sys_ = channels.RayleighSystem(cfg.sigma2, cfg.power, cfg.gamma_bar)
        gammas = _uncoded_gains(cfg.gamma_bar)
        reports = montecarlo.simulate_uncoded_gaussian(
            montecarlo.TrialConfig(n, cfg.trials, cfg.seed), sys_, gammas
        )
        for gamma, report in zip(gammas, reports):
            row(f"gamma={gamma:.6g}", n, report, gaussian_system.uncoded_state_distortion(sys_, gamma))
    elif cfg.experiment == "quantizer":
        rate = 0.5
        lengths = [cfg.blocklength] if cfg.blocklength else [8, 12, 16]
        for n in lengths:
            report = montecarlo.simulate_random_quantizer(
                montecarlo.TrialConfig(n, cfg.trials, cfg.seed), rate
            )
            row(f"rate={rate:.6g}", n, report, specfn.bss_distortion_rate(rate), one_sided=True)
    elif cfg.experiment == "msvq":
        n = cfg.blocklength or 16
        r2, r1 = 0.5, 0.25
        base, refined = montecarlo.simulate_msvq(
            montecarlo.TrialConfig(n, cfg.trials, cfg.seed), r2, r1
        )
        row(f"base r2={r2:.6g}", n, base, specfn.bss_distortion_rate(r2), one_sided=True)
        row(f"refined r1+r2={r1 + r2:.6g}", n, refined,
            specfn.bss_distortion_rate(r1 + r2), one_sided=True)
    else:  # superposition
        ch = _bsc(cfg)
        beta = 0.1
        boundary = channels.bsc_bc_rate_region(ch, beta)
        rates = channels.RatePair(r1=0.8 * boundary.r1, r2=0.8 * boundary.r2)
        lengths = [cfg.blocklength] if cfg.blocklength else [64, 128, 256]
        for m in lengths:
            err1, err2 = montecarlo.simulate_superposition_bc(
                montecarlo.TrialConfig(m, cfg.trials, cfg.seed), ch, beta, rates
            )
            row("state=1", m, err1, None)
            row("state=2", m, err2, None)
    return columns


def cmd_mc(cfg: argparse.Namespace) -> FigureTable:
    columns = _mc_columns(cfg)
    return FigureTable(
        columns=[
            "experiment", "param", "blocklength", "trials",
            "mean", "half_width", "target", "pass_3sigma",
        ],
        blocks=[Block(len(columns[0]), (cfg.experiment, *columns))],
        metadata=_metadata(cfg),
    )


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------


def _selfcheck_results() -> list[tuple[str, bool, str]]:
    results: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        results.append((name, ok, detail))

    grid = [0.01 * i for i in range(1, 100)]
    err = max(abs(specfn.binary_entropy(p) - specfn.binary_entropy(1 - p)) for p in grid)
    check("entropy-symmetry", err <= 1e-15, f"max |h(p)-h(1-p)| = {err:.2e}")

    import numpy as np

    # h^-1(r) for every r in one array inversion, of the pairs t = r, rate = 1 - r
    rs = [0.05 * i for i in range(1, 20)]
    ps = specfn._inverse_entropy(np.array(rs), 1.0 - np.array(rs)).tolist()
    err = max(abs(specfn.binary_entropy(p) - r) for p, r in zip(ps, rs))
    check("entropy-roundtrip", err <= 1e-9, f"max roundtrip error = {err:.2e}")

    ok = specfn.binary_convolve(0.3, 0.0) == 0.3 and specfn.binary_convolve(0.3, 0.5) == 0.5
    check("convolve-identity-absorbing", ok, "a*0 = a and a*1/2 = 1/2")

    def other_scaled_e1(x: float) -> float:
        # exp(x) E1(x) by the route that exp_integral and scaled_exp_integral do not take at x
        return math.exp(x) * specfn._e1_series(x) if x > 1.0 else specfn._scaled_e1_fraction(x)

    xs = [0.5, 0.75, 1.0, 1.5, 2.0]
    err = max(abs(specfn.exp_integral(x) / (other_scaled_e1(x) * math.exp(-x)) - 1.0) for x in xs)
    check("exp-integral-routes", err <= 1e-12, f"max rel gap = {err:.2e}")

    xs = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    ok = all(specfn.exp_integral(x) < math.exp(-x) / x for x in xs)
    check("exp-integral-bound", ok, "E1(x) < exp(-x)/x")

    zs = [10.0 ** (k / 2.0) for k in range(-12, 13)]
    err = max(
        abs(specfn.lambert_w(z) * math.exp(specfn.lambert_w(z)) - z) / max(1.0, z) for z in zs
    )
    check("lambert-w-roundtrip", err <= 1e-12, f"max scaled residual = {err:.2e}")

    worst = 0.0
    for a in (0.5, 1.0, 2.0, 5.0):
        sys_ = channels.RayleighSystem(1.0, a, 1.0)
        closed, _ = gaussian_system.optimal_outage_for_distortion(sys_)
        numeric, _ = specfn.golden_section(
            lambda q: gaussian_system.outage_separation_distortion(sys_, q), 1e-9, 1.0 - 1e-9,
            tol=1e-9,
        )
        worst = max(worst, abs(closed - numeric))
    check("outage-for-distortion-agreement", worst <= 1e-6, f"max |closed-numeric| = {worst:.2e}")

    worst = 0.0
    for a in (0.5, 1.0, 2.0, 5.0):
        sys_ = channels.RayleighSystem(1.0, a, 1.0)
        closed = channels.optimal_outage_for_capacity(sys_)
        numeric, _ = specfn.golden_section(
            lambda q: -channels.outage_capacity_rayleigh(sys_, q), 1e-9, 1.0 - 1e-9, tol=1e-9
        )
        worst = max(worst, abs(closed - numeric))
    check("outage-for-capacity-agreement", worst <= 1e-6, f"max |closed-numeric| = {worst:.2e}")

    worst = 0.0
    for a in (0.5, 1.0, 2.0, 5.0):
        closed = gaussian_system.uncoded_expected_distortion(channels.RayleighSystem(1.0, a, 1.0))
        # sigma2 x exp(x) E1(x) at x = 1/a, with sigma2 = 1
        worst = max(worst, abs(closed / (other_scaled_e1(1.0 / a) / a) - 1.0))
    check("uncoded-distortion-routes", worst <= 1e-12, f"max rel gap = {worst:.2e}")

    worst = 0.0
    for alpha in (0.25, 0.45):
        dc = bss_system.wyner_ziv_turning_point(alpha)
        lhs = bss_system._g(dc, alpha) / (dc - alpha)
        worst = max(worst, abs(lhs - bss_system._g_prime(dc, alpha)))
    check("wyner-ziv-turning-identity", worst <= 1e-8, f"max residual = {worst:.2e}")

    # the rho = 0 column of a residue-splitting mesh against broadcast on its beta grid
    ch = channels.CompositeBsc(0.25, 0.45, 0.5, 2.0)
    grid = 5
    rs = bss_system.sweep_layered(ch, Scheme.RESIDUE_SPLITTING, grid)
    bc = bss_system.sweep_layered(ch, Scheme.BROADCAST, grid)
    fields = ("beta", "rho", "d1", "d2", "expected", "kt", "kr")
    same = all(getattr(rs, f)[::grid].tolist() == getattr(bc, f).tolist() for f in fields)
    check("residue-rho0-is-broadcast", same, "field equality at rho = 0")

    pts = [(0.1, 0.4), (0.4, 0.1), (0.4, 0.4), (0.2, 0.35)]
    hull = specfn.pareto_lower_hull(pts)
    ok = bool(bss_system.hull_dominates_array(hull, *zip(*pts), slack=1e-12).all())
    check("hull-dominates-inputs", ok, "every input point dominated")

    return results


def run_selfcheck() -> int:
    results = _selfcheck_results()
    width = max(len(name) for name, _, _ in results)
    failures = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        failures += 0 if ok else 1
    print(f"{len(results)} checks, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_SELFCHECK


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

_FLOAT_DEFAULTS = {"alpha1": "0.25", "alpha2": "0.45", "p": "0.5", "b": "2.0",
                   "sigma2": "1.0", "power": "1.0", "gamma_bar": "1.0"}
# per configuration key: the parser of its text (a flag, a --config value or
# a default text), its range as a test and its wording, and its default text
# (None: no value) where the command has none in _DEFAULT_TEXTS
_KEYS = {
    **{key: (float, math.isfinite, "be finite", text) for key, text in _FLOAT_DEFAULTS.items()},
    "grid": (int, lambda v: v >= 2, "be >= 2", "65"),
    "seed": (int, lambda v: 0 <= v < 2**64, "lie in [0, 2^64)", "12345"),
    "trials": (int, lambda v: v >= 1, "be >= 1", "200"),
    "blocklength": (int, lambda v: v >= 1, "be >= 1", None),
    "p_grid": (_parse_grid_spec, None, "", None),  # the parser checks the sweep
    "out": (str, None, "", None),
    "format": (str, lambda v: v in ("csv", "json"), "be csv or json", "csv"),
}
_BSC_READS = {"alpha1", "alpha2", "p", "b", "grid", "out", "format"}
_MC_READS = {"seed", "trials", "blocklength", "out", "format"}
# the keys each command reads; it rejects any other key, by flag or by --config.
# The parser's command choices and experiment help follow the row order.
_READS = {
    "gaussian-compare": {"sigma2", "gamma_bar", "p_grid", "out", "format"},
    "bss-region": _BSC_READS,
    "bss-frontier": _BSC_READS | {"p_grid"},
    "bss-interface": _BSC_READS,
    "mc uncoded-bsc": _MC_READS | {"alpha1"},
    "mc uncoded-gaussian": _MC_READS | {"sigma2", "power", "gamma_bar"},
    "mc quantizer": _MC_READS,
    "mc msvq": _MC_READS,
    "mc superposition": _MC_READS | {"alpha1", "alpha2", "p", "b"},
    "selfcheck": set(),
}
# the text of a read key that is not given, where the _KEYS default does not hold
_DEFAULT_TEXTS = {
    "gaussian-compare": {"p_grid": "0.25:8:20"},
    "bss-frontier": {"p_grid": "0:1:41"},
    "bss-interface": {"p": "0.7"},
}
# --help text of the flags that say more than their name
_FLAG_HELP = {"p_grid": "sweep for the command's x axis: lo:hi:n or v1,v2,...",
              "out": "output path (default: stdout)"}


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
                key, value = text.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


@functools.cache  # built on the first call, not at import; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="composite-coder",
        description="Composite-channel capacity/distortion tables and Monte Carlo validation.",
    )
    parser.add_argument("command", choices=list(dict.fromkeys(n.split()[0] for n in _READS)))
    experiments = [n.split()[1] for n in _READS if n.startswith("mc ")]
    parser.add_argument("experiment", nargs="?", default=None,
                        help="mc experiment: " + " | ".join(experiments))
    parser.add_argument("--config", default=None, help="key=value configuration file")
    for key in _KEYS:  # every value is a text that _resolve_config parses
        parser.add_argument(f"--{key.replace('_', '-')}", help=_FLAG_HELP.get(key),
                            metavar="{csv,json}" if key == "format" else None)
    return parser


def _with_negative_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with each value flag that a negative number follows joined to it by ``=``.

    argparse reads a token that starts with ``-`` as an option unless it is a
    plain decimal such as ``-1`` or ``-.5``, so ``--alpha1 -1e-5``, ``--b -inf``
    and ``--p-grid -1:1:5`` would leave their flag without a value.  Joined,
    they are checked like ``--alpha1=-1e-5``.  A token joins the flag (or an
    abbreviation of it) before it when its first ``:``- or ``,``-separated
    piece reads as a float; any other token, such as a next flag, stays.
    """
    flags = ["--config", *("--" + key.replace("_", "-") for key in _KEYS)]
    out: list[str] = []
    for token in argv:
        last = out[-1] if out else ""
        if (token.startswith("-") and len(last) > 2 and "=" not in last
                and any(flag.startswith(last) for flag in flags)):
            try:
                float(token.partition(":")[0].partition(",")[0])
            except ValueError:
                pass
            else:
                out[-1] = f"{last}={token}"
                continue
        out.append(token)
    return out


def _check_normal(name: str, value: float) -> None:
    if not sys.float_info.min <= value <= sys.float_info.max:
        raise ConfigError(f"{name} = {value!r} is not a positive normal float")


def _command_name(args: argparse.Namespace) -> str:
    """The command's row of _READS: the command, or ``mc <experiment>``."""
    if args.command != "mc":
        if args.experiment is not None:
            raise ConfigError(f"unexpected positional argument {args.experiment!r}")
        return args.command
    if args.experiment is None:
        raise ConfigError("mc requires an experiment name")
    if f"mc {args.experiment}" not in _READS:
        raise ConfigError(f"unknown mc experiment {args.experiment!r}")
    return f"mc {args.experiment}"


def _resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    name = _command_name(args)
    reads = _READS[name]
    given = {**file_values, **{k: getattr(args, k) for k in _KEYS if getattr(args, k) is not None}}

    unread = sorted(set(given) - reads)
    if unread:
        flags = ", ".join("--" + key.replace("_", "-") for key in unread)
        raise ConfigError(f"{name} does not accept {flags}")

    # every key the command reads has a value, every other key None
    cfg = argparse.Namespace(command=args.command, experiment=args.experiment)
    defaults = _DEFAULT_TEXTS.get(name, {})
    for key, (parse, in_range, must, default) in _KEYS.items():
        text = given.get(key, defaults.get(key, default)) if key in reads else None
        try:
            value = None if text is None else parse(text)
        except specfn.BudgetError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r}") from exc
        if value is not None and in_range and not in_range(value):
            raise ConfigError(f"{key} must {must}, got {value!r}")
        setattr(cfg, key, value)

    if "alpha2" in reads:
        if not 0.0 < cfg.alpha1 < cfg.alpha2 < 0.5:
            raise ConfigError(
                f"need 0 < alpha1 < alpha2 < 1/2, got ({cfg.alpha1}, {cfg.alpha2})"
            )
        if cfg.b < 1.0:
            raise ConfigError(f"b must be >= 1, got {cfg.b}")
        for p in (cfg.p, *(cfg.p_grid or ())):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"bad-state probability must lie in [0, 1], got {p}")
    elif "alpha1" in reads and not 0.0 <= cfg.alpha1 <= 1.0:
        raise ConfigError(f"crossover must lie in [0, 1], got {cfg.alpha1}")
    # parameters <= 0 are left to the model, which rejects them as a numeric error
    if {"gamma_bar", "p_grid"} <= reads and cfg.gamma_bar > 0.0:
        for power in cfg.p_grid:
            if power > 0.0:
                _check_normal(f"P*gamma_bar = {power!r}*{cfg.gamma_bar!r}", power * cfg.gamma_bar)
    if "power" in reads and min(cfg.sigma2, cfg.power, cfg.gamma_bar) > 0.0:
        _check_normal("sigma2", cfg.sigma2)
        _check_normal(f"P/sigma2 = {cfg.power!r}/{cfg.sigma2!r}", cfg.power / cfg.sigma2)
        for gamma in _uncoded_gains(cfg.gamma_bar):
            _check_normal(f"P*gamma = {cfg.power!r}*{gamma!r}", cfg.power * gamma)
    return cfg


_COMMANDS = {
    "gaussian-compare": cmd_gaussian_compare,
    "bss-region": cmd_bss_region,
    "bss-frontier": cmd_bss_frontier,
    "bss-interface": cmd_bss_interface,
    "mc": cmd_mc,
}


_EMIT_CHARS = 2**20


def _emit(table: FigureTable, cfg: argparse.Namespace) -> None:
    text = render_csv(table) if cfg.format == "csv" else render_json(table)
    # written a slice at a time, so no encoded copy of the whole text exists
    pieces = (text[i:i + _EMIT_CHARS] for i in range(0, len(text), _EMIT_CHARS))
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc
    else:
        sys.stdout.writelines(pieces)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_with_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run(args)
    # one clean stderr line per distinct warning, in place of the source-located default
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


def _run(args: argparse.Namespace) -> int:
    try:
        cfg = _resolve_config(args)
        if cfg.command == "selfcheck":
            code = run_selfcheck()
        else:
            code = EXIT_OK
            _emit(_COMMANDS[cfg.command](cfg), cfg)
        sys.stdout.flush()  # a reader that closed early is met here, not at exit
    except BrokenPipeError:
        # the flush at interpreter exit would raise again: it goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except specfn.BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
