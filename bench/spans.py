"""Span and counter recorder that traces composite_coder from the outside.

Tracing wraps the public functions of each package module and patches every
binding of them: module attributes (``bss_system.bsc_bc_rate_region`` is a
second binding of ``channels.bsc_bc_rate_region``) and values of module-level
dicts (``cli._COMMANDS`` dispatches through one).  Nothing inside the package
changes; ``Tracer.remove`` puts every original binding back.

Spans are kept in memory as a calling-context tree: spans with the same parent
and the same name are merged into one node that holds a call count and a
total duration, so memory grows with the number of distinct call paths, not
with the number of calls.  Each node keeps its parent's id, and the self time
of a node is its duration minus the duration of its children.  Recursive
calls of a function already on the stack are part of the outer span.

The hottest leaves (``COUNT_ONLY``) get a counter and no span, which keeps
tracing overhead bounded; their time is charged to the calling span.
"""

from __future__ import annotations

import functools
import inspect
import logging
import math
from collections import Counter
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

MODULES = ("cli", "bss_system", "gaussian_system", "channels", "specfn", "montecarlo")

COUNT_ONLY = frozenset({"specfn.binary_entropy", "specfn.binary_convolve"})

# functions whose first argument is a scalar callable, and the counter of its calls
EVALUATED_CALLABLES = {
    "specfn.integrate": "specfn.integrand_evals",
    "specfn.find_root": "specfn.find_root.evals",
}

SCHEME_EVALUATORS = (
    "bss_system.broadcast_scheme",
    "bss_system.shannon_scheme",
    "bss_system.outage_scheme",
    "bss_system.residue_splitting_scheme",
    "bss_system.systematic_scheme_good",
    "bss_system.systematic_scheme_bad",
)

# (name, unit, better) of every metric the traced run reports
PER_LAYER = [
    *[(f"{m}.self_s", "s", "lower") for m in MODULES],
    *[(f"{m}.calls", "count", "lower") for m in MODULES],
    ("cli.render_s", "s", "lower"),
    ("cli.render_bytes", "bytes", "lower"),
    ("bss_system.evaluations", "count", "lower"),
    ("channels.bsc_bc_rate_region.calls", "count", "lower"),
    ("gaussian_system.bc_power_threshold.calls", "count", "lower"),
    ("gaussian_system.bc_interference.calls", "count", "lower"),
    ("specfn.binary_entropy.calls", "count", "lower"),
    ("specfn.inverse_binary_entropy.calls", "count", "lower"),
    ("specfn.hull_dominates.calls", "count", "lower"),
    ("specfn.pareto_lower_hull.points_in", "count", "lower"),
    ("specfn.pareto_lower_hull.vertices_out", "count", "lower"),
    ("specfn.integrate.calls", "count", "lower"),
    ("specfn.integrand_evals", "count", "lower"),
    ("specfn.find_root.calls", "count", "lower"),
    ("specfn.find_root.evals", "count", "lower"),
    ("specfn.exp_integral.calls", "count", "lower"),
    ("montecarlo.trials", "count", "higher"),
    ("montecarlo.codebook_words", "count", "lower"),
    ("montecarlo.distance_bytes_computed", "bytes", "lower"),
    ("montecarlo.ball_failure_frac", "ratio", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]


class Recorder:
    """Calling-context spans and named counters of one traced run."""

    def __init__(self) -> None:
        # node id -> [parent id, name, calls, seconds]; parent -1 is a root
        self.nodes: list[list[Any]] = []
        self._index: dict[tuple[int, str], int] = {}
        self._stack: list[int] = [-1]
        self.active: set[str] = set()
        self.counts: Counter[str] = Counter()
        self.functions: set[str] = set()
        self.on = False

    def node(self, parent: int, name: str) -> int:
        key = (parent, name)
        found = self._index.get(key)
        if found is None:
            found = self._index[key] = len(self.nodes)
            self.nodes.append([parent, name, 0, 0.0])
        return found

    def run_op(self, label: str, fn: Callable[[], Any]) -> Any:
        """Call fn with recording on, under a root span named ``label``."""
        root = self.node(-1, label)
        self._stack = [root]
        self.on = True
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self.nodes[root][3] += perf_counter() - t0
            self.nodes[root][2] += 1
            self.on = False
            self._stack = [-1]

    def span(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        node = self.node(self._stack[-1], name)
        self._stack.append(node)
        self.active.add(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            entry = self.nodes[node]
            entry[3] += perf_counter() - t0
            entry[2] += 1
            self._stack.pop()
            self.active.discard(name)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: span time minus child-span time."""
        child = [0.0] * len(self.nodes)
        for parent, _, _, seconds in self.nodes:
            if parent >= 0:
                child[parent] += seconds
        out: Counter[str] = Counter()
        for i, (_, name, _, seconds) in enumerate(self.nodes):
            out[name] += seconds - child[i]
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: Counter[str] = Counter(self.counts)
        for _, name, calls, _ in self.nodes:
            out[name] += calls
        return dict(out)

    def dump(self) -> dict[str, Any]:
        return {
            "nodes": [
                {"id": i, "parent": p, "name": n, "calls": c, "seconds": s}
                for i, (p, n, c, s) in enumerate(self.nodes)
            ],
            "counts": dict(sorted(self.counts.items())),
        }


def _counting(rec: Recorder, counter: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def counted(*args: Any, **kwargs: Any) -> Any:
        if rec.on:
            rec.counts[counter] += 1
        return fn(*args, **kwargs)

    return counted


def _codebook_size(rate: float, n: int) -> int:
    # the sizing rule of montecarlo: ceil(2^(rate*n)) words of n bits
    return int(math.ceil(2.0 ** (rate * n)))


def _montecarlo_work(rec: Recorder, name: str, bound: inspect.BoundArguments) -> None:
    """Trials, codebook words and distance-kernel bytes implied by the inputs."""
    args = bound.arguments
    cfg = args["cfg"]
    n, trials = cfg.blocklength, cfg.trials
    words = per_trial = 0
    if name == "montecarlo.simulate_random_quantizer":
        words = min(_codebook_size(args["rate"], n), 2**n)
        per_trial = words * n
    elif name == "montecarlo.simulate_msvq":
        words = min(_codebook_size(args["r2"], n), 2**n) + _codebook_size(args["r1"], n)
        per_trial = words * n
    elif name == "montecarlo.simulate_superposition_bc":
        size_u = _codebook_size(args["rates"].r2, n)
        size_q = _codebook_size(args["rates"].r1, n)
        # the base codebook is redrawn every trial; three decodes per trial
        words = size_q + size_u * trials
        per_trial = (2 * size_u + size_q) * n
        rec.counts["montecarlo.decodes_attempted"] += 3 * trials
    rec.counts["montecarlo.trials"] += trials
    rec.counts["montecarlo.codebook_words"] += words
    rec.counts["montecarlo.distance_bytes_computed"] += per_trial * trials


def _hooked(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Span wrapper, plus the layer counts that need arguments or results."""

    def traced(*args: Any, **kwargs: Any) -> Any:
        if not rec.on or name in rec.active:
            return fn(*args, **kwargs)
        counter = EVALUATED_CALLABLES.get(name)
        if counter is not None:
            f, evals = args[0], [0]

            def counted(x: float) -> float:
                evals[0] += 1
                return f(x)

            result = rec.span(name, fn, (counted,) + args[1:], kwargs)
            rec.counts[counter] += evals[0]
            return result
        if name.startswith("montecarlo.simulate_"):
            _montecarlo_work(rec, name, inspect.signature(fn).bind(*args, **kwargs))
        result = rec.span(name, fn, args, kwargs)
        if name == "specfn.pareto_lower_hull":
            rec.counts["specfn.pareto_lower_hull.points_in"] += len(args[0])
            rec.counts["specfn.pareto_lower_hull.vertices_out"] += len(result)
        elif name in ("cli.render_csv", "cli.render_json"):
            rec.counts["cli.render_bytes"] += len(result.encode())
        return result

    return functools.update_wrapper(traced, fn)


class _BallFailures(logging.Handler):
    """Reads the superposition decoder's debug record of ball failures."""

    def __init__(self, rec: Recorder) -> None:
        super().__init__(logging.DEBUG)
        self.rec = rec

    def emit(self, record: logging.LogRecord) -> None:
        if self.rec.on and record.msg.startswith("superposition decode diagnostics"):
            _, trials, fractions = record.args
            failed = sum(fractions.values()) * trials
            self.rec.counts["montecarlo.decodes_failed"] += round(failed)


class Tracer:
    """Installs span wrappers on every binding of the package's public functions."""

    def __init__(self, rec: Recorder, package: ModuleType, modules: dict[str, ModuleType]) -> None:
        self.rec = rec
        wrappers: dict[int, Callable[..., Any]] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                rec.functions.add(name)
                wrappers[id(obj)] = (
                    _counting(rec, name, obj) if name in COUNT_ONLY else _hooked(rec, name, obj)
                )
        self._patches: list[tuple[Any, Any, Any]] = []
        for mod in (package, *modules.values()):
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._patches.append((obj, key, value))
                            obj[key] = wrappers[id(value)]
        self._logger = logging.getLogger(modules["montecarlo"].__name__)
        self._level = self._logger.level
        self._handler = _BallFailures(rec)
        self._logger.addHandler(self._handler)
        self._logger.setLevel(logging.DEBUG)

    def remove(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches = []
        self._logger.removeHandler(self._handler)
        self._logger.setLevel(self._level)


def layer_metrics(rec: Recorder, replays: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics, per round, of ``replays`` identical traced rounds."""
    calls = rec.calls()
    self_s = rec.self_seconds()
    total: dict[str, float] = {}
    for mod in MODULES:
        prefix = mod + "."
        total[f"{mod}.self_s"] = sum(s for n, s in self_s.items() if n.startswith(prefix))
        total[f"{mod}.calls"] = sum(calls.get(n, 0) for n in rec.functions if n.startswith(prefix))
    total["cli.render_s"] = self_s.get("cli.render_csv", 0.0) + self_s.get("cli.render_json", 0.0)
    total["bss_system.evaluations"] = sum(calls.get(n, 0) for n in SCHEME_EVALUATORS)
    for name, _, _ in PER_LAYER:
        if name not in total:
            total[name] = calls.get(name.removesuffix(".calls"), 0)
    out = {name: total[name] / replays for name, _, _ in PER_LAYER}
    attempted = rec.counts["montecarlo.decodes_attempted"]
    failed = rec.counts["montecarlo.decodes_failed"]
    out["montecarlo.ball_failure_frac"] = failed / attempted if attempted else 0.0
    out["trace_overhead_frac"] = overhead
    return out
