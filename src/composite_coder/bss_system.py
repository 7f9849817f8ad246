"""Transmission schemes for a symmetric binary source over a two-state BSC.

Four scheme families are evaluated analytically, each yielding a per-state
distortion pair (d1 good state, d2 bad state), the state-averaged expected
distortion, and the number of bits per source symbol crossing the
transmitter/receiver source-channel interfaces (kt, kr):

- broadcast: superposition channel code plus a two-layer refinable source
  code; the single-rate (Shannon) and outage-only codes are its beta = 0 and
  beta = 1/2 endpoints;
- systematic (per target state): source bits sent uncoded on a secondary
  subchannel as decoder side information, plus a side-information-aware
  source code on the remaining uses;
- quantization residue splitting: broadcast layering with part of the base
  quantization residue sent uncoded on a reserved subchannel (broadcast is
  its rho = 0 special case, reproduced bit-exactly).

Distortion regions are convex hulls of swept parameter families, so the
frontier and region computations include time sharing.  All rates here are
in bits per channel use and all distortions are Hamming fractions.

Every family reaches its callers as a ``LayeredSweep`` struct of arrays.
``sweep_family`` is the one registry: it sweeps broadcast and residue
splitting as meshes, Shannon and outage as one-point meshes, and wraps each
systematic family as the one-point sweep of its evaluator;
``sweep_families`` sweeps several, residue splitting first.  Each table then
has one code path: a region is ``sweep_family(...).hull()``, the best scheme
per bad-state probability is ``expected_distortion_frontier``, columns of
each family's ``hull_envelope`` over the p grid with exact crossovers, and
the interface-complexity tradeoff is ``interface_staircases`` of each sweep's
(kt, kr, expected) arrays, taken with numpy: the points sorted by
(k, expected), the running minimum of expected, and the last point of each
run of equal k.

The layered families have one arithmetic path, ``_layered_mesh``: numpy
(imported on first use, so importing this module does not load numpy) over
a beta-major (beta, rho) mesh, with one ``specfn.bss_distortion_rate_array``
call for all its distortions.  ``sweep_layered`` runs it on a uniform grid,
and the per-point evaluators (``broadcast_scheme`` and the rest) on a
one-point mesh.  A sweep holds at most MESH_CAP points; a larger one raises
``specfn.BudgetError`` before any array is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import specfn
from .channels import CompositeBsc, bsc_bc_rate_region

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Scheme",
    "COMPARED_FAMILIES",
    "SchemeEvaluation",
    "LayeredSweep",
    "Crossover",
    "FrontierResult",
    "wyner_ziv_turning_point",
    "wyner_ziv_rate",
    "wyner_ziv_distortion",
    "broadcast_scheme",
    "systematic_scheme_good",
    "systematic_scheme_bad",
    "residue_splitting_scheme",
    "sweep_layered",
    "sweep_family",
    "sweep_families",
    "hull_dominates_array",
    "hull_envelope",
    "expected_distortion_frontier",
    "interface_staircases",
]

RHO_MAX = 1.0 - 1e-6
MESH_CAP = 2**21  # (beta, rho) points per layered sweep: admits grid 1025, not 1449

# a bound on the Newton steps of one Wyner-Ziv solve; over alpha in
# [1e-12, 0.4998] and rates up to h(alpha) a solve takes at most 10
_WZ_NEWTON_CAP = 64


class Scheme(str, Enum):
    BROADCAST = "broadcast"
    SHANNON = "shannon"
    OUTAGE = "outage"
    SYSTEMATIC_GOOD = "systematic_good"
    SYSTEMATIC_BAD = "systematic_bad"
    RESIDUE_SPLITTING = "residue_splitting"


# the four families the paper compares, in the column order of its tables
COMPARED_FAMILIES = (
    Scheme.BROADCAST,
    Scheme.RESIDUE_SPLITTING,
    Scheme.SYSTEMATIC_GOOD,
    Scheme.SYSTEMATIC_BAD,
)

@dataclass(frozen=True)
class SchemeEvaluation:
    """One scheme at one parameter point."""

    scheme: Scheme
    params: dict[str, float] = field(compare=False)
    d1: float = field(compare=True)
    d2: float = field(compare=True)
    expected: float = field(compare=True)
    kt: float = field(compare=True)
    kr: float = field(compare=True)

    def __post_init__(self) -> None:
        # a violated ordering indicates a formula transcription bug upstream
        if not -1e-12 <= self.d1 <= self.d2 <= 0.5 + 1e-12:
            raise AssertionError(
                f"distortions out of order for {self.scheme}: d1={self.d1}, d2={self.d2}"
            )
        if self.kt < 0.0 or self.kr < 0.0:
            raise AssertionError(f"negative interface complexity for {self.scheme}")


def _g(d: float, alpha: float) -> float:
    if d >= alpha:
        return 0.0
    return specfn.binary_entropy(specfn.binary_convolve(alpha, d)) - specfn.binary_entropy(d)


def _g_prime(d: float, alpha: float) -> float:
    """Analytic derivative of _g on (0, alpha); matches central differences.

    d/dd [h(alpha conv d)] = (1 - 2 alpha) log2((1-a*d)/(a*d)) with
    a*d = alpha conv d, and d/dd [h(d)] = log2((1-d)/d).
    """
    conv = specfn.binary_convolve(alpha, d)
    return (1.0 - 2.0 * alpha) * math.log2((1.0 - conv) / conv) - math.log2((1.0 - d) / d)


def _g_second(d: float, alpha: float) -> float:
    """Analytic second derivative of _g on (0, alpha).

    g''(d) = [1/(d(1-d)) - (1 - 2 alpha)^2/(c(1-c))]/ln 2 with c = alpha conv d.
    """
    conv = specfn.binary_convolve(alpha, d)
    return (1.0 / (d * (1.0 - d)) - (1.0 - 2.0 * alpha) ** 2 / (conv * (1.0 - conv))) / math.log(2.0)


def _newton_in_log(f: Callable[[float], float], slope: Callable[[float], float], d: float, alpha: float) -> float:
    """The root in (0, alpha) of f, whose derivative is ``slope``, by Newton on ln d.

    Steps in ln d keep every iterate positive.  They stop once a step is at
    most 1e-14 or no smaller than the one before, which only rounding noise
    in f makes it (near r = h(alpha), g(d) - r has few correct digits).  An
    iterate at or past alpha means the root is not resolved in floats, and
    raises ValueError.
    """
    previous = math.inf
    for _ in range(_WZ_NEWTON_CAP):
        step = f(d) / (slope(d) * d)
        d *= math.exp(-step)
        if not d < alpha:
            raise ValueError(f"Wyner-Ziv root for crossover {alpha} is not resolved")
        if abs(step) <= 1e-14 or abs(step) >= previous:
            break
        previous = abs(step)
    return d


@lru_cache(maxsize=None)
def wyner_ziv_turning_point(alpha: float) -> float:
    """The unique dc in (0, alpha) where g(dc)/(dc - alpha) = g'(dc).

    Newton on the tangent gap g(d) + g'(d)(alpha - d), whose derivative is
    g''(d)(alpha - d), from max(alpha^2/e, 2 alpha - 1/2): dc tends to
    alpha^2/e as alpha -> 0 and to 2 alpha - 1/2 as alpha -> 1/2.  Within
    2e-4 of 1/2, where the tangent gap (about eps^2 with eps = 1/2 - alpha)
    has few correct digits, dc is the series 2 alpha - 1/2 + (16/3) eps^3 of
    the entropy about 1/2, whose O(eps^5) rest is below a tenth of an ulp.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"crossover must lie in (0, 1/2), got {alpha}")
    if alpha < 1e-12:
        # the gap's terms cancel more as alpha falls: about 40 ulps of dc at 1e-12
        raise ValueError(f"crossover {alpha} is below 1e-12, where dc is not resolved")
    eps = 0.5 - alpha
    if eps <= 2e-4:
        return 2.0 * alpha - 0.5 + 16.0 / 3.0 * eps**3
    return _newton_in_log(
        lambda d: _g(d, alpha) + _g_prime(d, alpha) * (alpha - d),
        lambda d: _g_second(d, alpha) * (alpha - d),
        max(alpha * alpha / math.e, 2.0 * alpha - 0.5),
        alpha,
    )


def wyner_ziv_rate(d: float, alpha: float) -> float:
    """Rate (bits/symbol) to hit Hamming distortion d with side information.

    The side information is the source through a BSC(alpha).  Below the
    turning point the rate is g(d); beyond it, the time-sharing chord
    g(dc) * (alpha - d) / (alpha - dc) down to zero rate at d = alpha.
    """
    if not 0.0 <= d <= alpha:
        raise ValueError(f"distortion must lie in [0, alpha={alpha}], got {d}")
    dc = wyner_ziv_turning_point(alpha)
    if d <= dc:
        return _g(d, alpha)
    return _g(dc, alpha) * (alpha - d) / (alpha - dc)


def wyner_ziv_distortion(r: float, alpha: float) -> float:
    """Inverse of wyner_ziv_rate: the distortion reached at rate r.

    At or below g(dc) the rate is the chord, whose inverse is closed:
    d = alpha - r (alpha - dc)/g(dc).  Above it, Newton solves g(d) = r from
    the chord through (0, h(alpha)) and (dc, g(dc)).
    """
    top = _g(0.0, alpha)  # = h(alpha)
    if not 0.0 <= r <= top:
        raise ValueError(f"rate must lie in [0, h(alpha)={top}], got {r}")
    if r == 0.0:
        return alpha
    if r == top:
        return 0.0
    dc = wyner_ziv_turning_point(alpha)
    g_dc = _g(dc, alpha)
    if r <= g_dc:
        return alpha - r * (alpha - dc) / g_dc
    return _newton_in_log(
        lambda d: _g(d, alpha) - r,
        lambda d: _g_prime(d, alpha),
        dc * (top - r) / (top - g_dc),
        alpha,
    )


@dataclass(frozen=True, eq=False)
class LayeredSweep:
    """One scheme family evaluated at the points of its sweep, as a struct of arrays.

    Element i is the point (beta[i], rho[i]) with its d1, d2, expected, kt
    and kr.  ``names`` are the coordinates that are SchemeEvaluation params.
    The layered families (broadcast, its Shannon and outage endpoints, and
    residue splitting) carry their (beta, rho) points, broadcast with rho = 0
    throughout; the systematic families have neither coordinate, and hold NaN.
    """

    scheme: Scheme
    beta: np.ndarray
    rho: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    expected: np.ndarray
    kt: np.ndarray
    kr: np.ndarray
    names: tuple[str, ...]

    def param_blocks(self) -> list[tuple[int, object, object]]:
        """beta and rho as table entries, in runs of consecutive points: (count, beta, rho).

        An entry is an array of the run's values, or one value that every point
        of the run has: None where the coordinate is not a param.  A (beta, rho)
        mesh is one run per beta, and every run shares one array of the rho
        grid, so a table formats each grid value once.
        """
        if "rho" not in self.names:
            return [(self.beta.size, self.beta if "beta" in self.names else None, None)]
        grid = math.isqrt(self.beta.size)
        rho = self.rho[:grid]
        return [(grid, beta, rho) for beta in self.beta[::grid].tolist()]

    def hull(self) -> list[tuple[float, float]]:
        """The lower convex hull of the (d1, d2) points, sorted by d1.

        Points that an earlier point in (d1, d2) order weakly dominates are
        dropped with numpy first; ``specfn.pareto_lower_hull`` of the rest is
        the hull of all.
        """
        import numpy as np

        order = np.lexsort((self.d2, self.d1))
        d2 = self.d2[order]
        keep = np.ones(d2.size, dtype=bool)
        keep[1:] = d2[1:] < np.minimum.accumulate(d2)[:-1]
        index = order[keep]
        return specfn.pareto_lower_hull(list(zip(self.d1[index].tolist(), d2[keep].tolist())))


def _layered_mesh(
    ch: CompositeBsc, family: Scheme, betas: Sequence[float], rhos: Sequence[float]
) -> LayeredSweep:
    """A layered family at the beta-major mesh of ``betas`` x ``rhos``: the one layered path.

    With rho of the source symbols' channel budget reserved for uncoded
    residue transmission, the primary channel has bandwidth ratio (b - rho):
    base layer at rate (b-rho)*r2, refinement at ((b-rho)/(1-rho))*r1 over
    the first (1-rho) fraction of the source.  The rate pair comes from
    ``bsc_bc_rate_region`` once per beta, and the d2 and d1 rates are
    inverted in one ``specfn.bss_distortion_rate_array`` call.
    """
    import numpy as np

    rates = [bsc_bc_rate_region(ch, beta) for beta in betas]
    columns = (betas, [r.r1 for r in rates], [r.r2 for r in rates])
    beta, r1, r2 = np.array(columns, dtype=float).repeat(len(rhos), axis=1)
    rho = np.tile(np.array(rhos, dtype=float), len(betas))
    room, keep, p = ch.b - rho, 1.0 - rho, ch.p
    # The refinement term is exactly 0 where r1 = 0.  A b near the float maximum
    # overflows the rate to inf, which is lossless.  At rho = 1 the refinement
    # carries no source (weighted out by keep = 0): its rate is inf, where
    # room/keep would divide by zero, and be 0/0 at b = 1.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        refine = np.where(r1 != 0.0, room / keep * r1, 0.0)
        rate1 = np.where(keep > 0.0, refine + room * r2, np.inf)
    d = specfn.bss_distortion_rate_array(np.concatenate((room * r2, rate1)))
    d2, d1 = d[: rho.size], d[rho.size :]
    big_d1 = keep * d1 + rho * np.minimum(d2, ch.alpha1)
    big_d2 = keep * d2 + rho * np.minimum(d2, ch.alpha2)
    kt = room * (r1 + r2) + rho
    kr = room * ((1.0 - p) * r1 + r2)
    # uncoded residue is forwarded in state i only when it beats the base layer
    kr = np.where(d2 > ch.alpha2, kr + rho, np.where(d2 > ch.alpha1, kr + (1.0 - p) * rho, kr))
    expected = (1.0 - p) * big_d1 + p * big_d2
    # the SchemeEvaluation invariants, checked for the whole mesh
    disordered = ~((-1e-12 <= big_d1) & (big_d1 <= big_d2) & (big_d2 <= 0.5 + 1e-12))
    if disordered.any():
        i = int(np.argmax(disordered))
        raise AssertionError(
            f"distortions out of order for {family}: d1={big_d1[i].item()}, d2={big_d2[i].item()}"
        )
    if (kt < 0.0).any() or (kr < 0.0).any():
        raise AssertionError(f"negative interface complexity for {family}")
    names = ("beta", "rho") if family == Scheme.RESIDUE_SPLITTING else ("beta",)
    return LayeredSweep(family, beta, rho, big_d1, big_d2, expected, kt, kr, names)


def _layered_point(ch: CompositeBsc, family: Scheme, beta: float, rho: float) -> SchemeEvaluation:
    """The one-point mesh of a layered family, as a SchemeEvaluation."""
    s = _layered_mesh(ch, family, [beta], [rho])
    fields = (c.item() for c in (s.d1, s.d2, s.expected, s.kt, s.kr))
    return SchemeEvaluation(family, dict(zip(s.names, (beta, rho))), *fields)


# the single-rate (Shannon) and outage-only codes: broadcast at these betas
_BROADCAST_ENDPOINTS = {Scheme.SHANNON: 0.0, Scheme.OUTAGE: 0.5}


def broadcast_scheme(ch: CompositeBsc, beta: float) -> SchemeEvaluation:
    """Superposition broadcast code with a two-layer refinable source code.

    d1 = D(b*(r1+r2)), d2 = D(b*r2); kt = b*(r1+r2),
    kr = b*((1-p)*r1 + r2).
    """
    return _layered_point(ch, Scheme.BROADCAST, beta, 0.0)


def residue_splitting_scheme(ch: CompositeBsc, beta: float, rho: float) -> SchemeEvaluation:
    """Broadcast layering with a rho fraction of residue sent uncoded.

    rho = 0 reproduces broadcast_scheme(beta) field for field; rho = 1 is the
    all-uncoded limit where only the base quantizer and the uncoded residue
    matter.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return _layered_point(ch, Scheme.RESIDUE_SPLITTING, beta, rho)


def sweep_layered(ch: CompositeBsc, family: Scheme, grid: int) -> LayeredSweep:
    """Broadcast or residue splitting on the uniform grid of its sweep.

    Broadcast takes ``grid`` values of beta in [0, 1/2]; residue splitting
    the beta-major grid x grid mesh of beta and rho in [0, RHO_MAX].
    """
    if family not in (Scheme.BROADCAST, Scheme.RESIDUE_SPLITTING):
        raise ValueError(f"{family} is not a layered family")
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    points = grid if family == Scheme.BROADCAST else grid * grid
    if points > MESH_CAP:
        raise specfn.BudgetError(
            f"{family.value} sweep at grid {grid} has {points} points, over the cap of {MESH_CAP}"
        )
    betas = [0.5 * i / (grid - 1) for i in range(grid)]
    rhos = [0.0] if family == Scheme.BROADCAST else [RHO_MAX * j / (grid - 1) for j in range(grid)]
    return _layered_mesh(ch, family, betas, rhos)


def hull_dominates_array(
    hull: Sequence[tuple[float, float]], x: Sequence[float], y: Sequence[float], slack: float = 0.0
) -> np.ndarray:
    """Whether the hull polyline, sorted by d1, weakly dominates (x[i], y[i]), for every i.

    Each coordinate v is first moved by slack * |v| plus one least subnormal
    on the slack's side, so the slack scales with the distortions.  A moved
    point left of the hull is not dominated; any other is when the hull's
    height at its x is at most its y: interpolated on the segment found by
    binary search, or the last vertex's d2 right of the hull.
    """
    import numpy as np

    xs = np.array([v[0] for v in hull])
    ys = np.array([v[1] for v in hull])
    reach, bound = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if slack:
        tiny = math.copysign(5e-324, slack)
        reach = reach + (slack * np.abs(reach) + tiny)
        bound = bound + (slack * np.abs(bound) + tiny)
    k = np.searchsorted(xs, reach, side="right")
    out = np.where(k == len(xs), ys[-1] <= bound, False)
    seg = np.flatnonzero((k > 0) & (k < len(xs)))
    ks = k[seg]
    x0, x1, y0, y1 = xs[ks - 1], xs[ks], ys[ks - 1], ys[ks]
    t = (reach[seg] - x0) / (x1 - x0)
    out[seg] = y0 + t * (y1 - y0) <= bound[seg]
    return out


def systematic_scheme_good(ch: CompositeBsc) -> SchemeEvaluation:
    """Systematic code tuned to the good state.

    Source bits go uncoded on n of the m channel uses; the remaining budget
    carries a side-information-aware code sized for side information through
    BSC(alpha1).  In the bad state that code is undecodable and the
    reconstruction is the raw secondary output (distortion alpha2).  When the
    coded budget exceeds h(alpha1), the refinement is lossless and d1 clamps
    to zero.
    """
    rate = (ch.b - 1.0) * (1.0 - specfn.binary_entropy(ch.alpha1))
    top = specfn.binary_entropy(ch.alpha1)
    d1 = 0.0 if rate >= top else wyner_ziv_distortion(rate, ch.alpha1)
    d2 = ch.alpha2
    kt = 1.0 + rate
    kr = 1.0 + (1.0 - ch.p) * rate
    return SchemeEvaluation(
        scheme=Scheme.SYSTEMATIC_GOOD,
        params={},
        d1=d1,
        d2=d2,
        expected=(1.0 - ch.p) * d1 + ch.p * d2,
        kt=kt,
        kr=kr,
    )


def systematic_scheme_bad(ch: CompositeBsc) -> SchemeEvaluation:
    """Systematic code tuned to the bad state.

    d2 comes from inverting the side-information curve for alpha2 at the
    coded budget.  In the good state the receiver uses whichever of the
    side-information decoding and the raw secondary output is better,
    honouring the time-sharing split when d2 sits past the turning point:

    - d1 = alpha1            when alpha1 <= min(d2, dc2);
    - d1 = d2                when d2 <= dc2 and d2 < alpha1;
    - d1 = th*dc2 + (1-th)*alpha1  otherwise, with th from
      d2 = th*dc2 + (1-th)*alpha2.

    The coded stream is worth forwarding in the good state only when
    alpha1 > min(d2, dc2), which is what the kr cases encode.
    """
    rate = (ch.b - 1.0) * (1.0 - specfn.binary_entropy(ch.alpha2))
    top = specfn.binary_entropy(ch.alpha2)
    d2 = 0.0 if rate >= top else wyner_ziv_distortion(rate, ch.alpha2)
    dc2 = wyner_ziv_turning_point(ch.alpha2)
    params: dict[str, float] = {}
    if ch.alpha1 <= min(d2, dc2):
        d1 = ch.alpha1
        kr = 1.0 + ch.p * rate
    else:
        kr = 1.0 + rate
        if d2 <= dc2:
            d1 = d2
        else:
            theta = (ch.alpha2 - d2) / (ch.alpha2 - dc2)
            d1 = theta * dc2 + (1.0 - theta) * ch.alpha1
            params["theta"] = theta
    return SchemeEvaluation(
        scheme=Scheme.SYSTEMATIC_BAD,
        params=params,
        d1=d1,
        d2=d2,
        expected=(1.0 - ch.p) * d1 + ch.p * d2,
        kt=1.0 + rate,
        kr=kr,
    )


def sweep_family(ch: CompositeBsc, family: Scheme, grid: int) -> LayeredSweep:
    """Any scheme family as a ``LayeredSweep``: the one registry of families.

    Broadcast and residue splitting are swept on ``grid`` by ``sweep_layered``;
    Shannon and outage are the one-point meshes of broadcast at beta = 0 and
    beta = 1/2.  The two systematic families, which are not layered, are the
    one-point sweeps of their evaluators.
    """
    if family in _BROADCAST_ENDPOINTS:
        return _layered_mesh(ch, family, [_BROADCAST_ENDPOINTS[family]], [0.0])
    evaluate = {
        Scheme.SYSTEMATIC_GOOD: systematic_scheme_good,
        Scheme.SYSTEMATIC_BAD: systematic_scheme_bad,
    }.get(family)
    if evaluate is None:
        return sweep_layered(ch, family, grid)
    import numpy as np

    e = evaluate(ch)
    columns = (np.array([v]) for v in (math.nan, math.nan, e.d1, e.d2, e.expected, e.kt, e.kr))
    return LayeredSweep(family, *columns, ())


def sweep_families(
    ch: CompositeBsc, grid: int, families: Sequence[Scheme]
) -> dict[Scheme, LayeredSweep]:
    """``sweep_family`` of each family, keyed in the order given.

    Residue splitting is swept first: its mesh is the one the work budget
    can refuse, and it is refused before any other work is done.
    """
    first = sorted(families, key=lambda f: f != Scheme.RESIDUE_SPLITTING)
    sweeps = {family: sweep_family(ch, family, grid) for family in first}
    return {family: sweeps[family] for family in families}


# the (p x vertex) cells of one envelope chunk: bounds its temporaries at 2 MiB
_ENVELOPE_CELLS = 2**18


def hull_envelope(hull: Sequence[tuple[float, float]], p: Sequence[float]) -> np.ndarray:
    """The minimum of (1-p)*d1 + p*d2 over the hull vertices (d1, d2), for every p.

    The expectation is linear, so over the time-sharing closure it is
    minimized at a hull vertex.  The (p x vertex) matrix is taken in chunks
    of at most _ENVELOPE_CELLS cells, so p may be any length.
    """
    import numpy as np

    d1, d2 = np.array(hull).T
    p = np.asarray(p, dtype=float)
    out = np.empty(p.size)
    step = max(1, _ENVELOPE_CELLS // d1.size)
    for start in range(0, p.size, step):
        q = p[start : start + step, None]
        out[start : start + step] = ((1.0 - q) * d1 + q * d2).min(axis=1)
    return out


@dataclass(frozen=True)
class Crossover:
    scheme_low: Scheme  # best just below p
    scheme_high: Scheme  # best just above p
    p: float


@dataclass(frozen=True, eq=False)
class FrontierResult:
    """Per p: each family's best expected distortion, keyed in tie-break
    order, and ``winner``, the best family's position in that order."""

    p: np.ndarray
    expected: dict[Scheme, np.ndarray]
    winner: np.ndarray
    crossovers: list[Crossover]


# The frontier's families in tie-break order: residue splitting contains
# broadcast at rho = 0, so it wins the exact ties between the two.
_FRONTIER_FAMILIES = (
    Scheme.RESIDUE_SPLITTING,
    Scheme.SYSTEMATIC_GOOD,
    Scheme.SYSTEMATIC_BAD,
    Scheme.BROADCAST,
)


def _crossing(hull_a: Sequence[tuple[float, float]], hull_b: Sequence[tuple[float, float]],
              p_a: float, p_b: float) -> float:
    """Where the best family changes from A at p_a to B at p_b, from the hull lines.

    The gap E_A - E_B is <= 0 at p_a and >= 0 at p_b.  Its knots are the
    bracket ends and both hulls' breakpoints between them, where a hull's
    vertex changes from i to i + 1: (1-p)*dx + p*dy = 0 for the steps dx and
    dy from vertex i to i + 1.  Walking the knots from p_a, the crossing is
    the last knot where the gap is <= 0 if the gap is 0 there or that knot is
    p_b, and otherwise the intersection of the two vertices' lines on the
    piece after it.
    """
    import numpy as np

    hulls = (np.array(hull_a), np.array(hull_b))
    breaks = [dx / (dx - dy) for dx, dy in (np.diff(h, axis=0).T for h in hulls)]
    lo, hi = sorted((p_a, p_b))
    knots = np.unique(np.concatenate(([lo, hi], *breaks)))
    knots = knots[(lo <= knots) & (knots <= hi)]
    if p_a > p_b:
        knots = knots[::-1]
    gap = hull_envelope(hull_a, knots) - hull_envelope(hull_b, knots)
    last = np.flatnonzero(gap <= 0.0)[-1]
    if gap[last] == 0.0 or last == knots.size - 1:
        return knots[last].item()
    # each hull's vertex on the piece follows its breakpoints at or below the piece's start
    start = min(knots[last], knots[last + 1])
    (xa, ya), (xb, yb) = (h[np.searchsorted(b, start, side="right")] for h, b in zip(hulls, breaks))
    dx, dy = xa - xb, ya - yb
    return (dx / (dx - dy)).item()


def expected_distortion_frontier(
    ch: CompositeBsc, p_grid: Iterable[float], grid: int
) -> FrontierResult:
    """Best scheme per bad-state probability, with exact crossover points.

    Each family is swept once (its hull does not depend on p), and its
    column is its ``hull_envelope`` over the whole p grid; the winner is the
    first least column in _FRONTIER_FAMILIES order.  Wherever the winner
    changes between consecutive grid points, ``_crossing`` finds the
    crossover from the hull lines: each envelope is piecewise linear in p.
    """
    import numpy as np

    p = np.array(p_grid, dtype=float)
    bad = np.flatnonzero(~((0.0 <= p) & (p <= 1.0)))
    if bad.size:
        raise ValueError(f"state probability must lie in [0, 1], got {p[bad[0]].item()}")
    hulls = [sweep.hull() for sweep in sweep_families(ch, grid, _FRONTIER_FAMILIES).values()]
    columns = [hull_envelope(hull, p) for hull in hulls]
    winner = np.argmin(np.stack(columns), axis=0)
    crossovers = []
    for i in np.flatnonzero(winner[1:] != winner[:-1]).tolist():
        a, b = winner[i].item(), winner[i + 1].item()
        p_cross = _crossing(hulls[a], hulls[b], p[i].item(), p[i + 1].item())
        crossovers.append(Crossover(_FRONTIER_FAMILIES[a], _FRONTIER_FAMILIES[b], p_cross))
    return FrontierResult(p, dict(zip(_FRONTIER_FAMILIES, columns)), winner, crossovers)


def interface_staircases(
    kt: np.ndarray, kr: np.ndarray, expected: np.ndarray
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Lower (kt, expected) and (kr, expected) staircases of one family's points.

    Each is a pair of arrays: the distinct complexities k in increasing order
    and the minimum expected distortion over the points at or below each.
    The points are sorted by (k, expected), the running minimum of expected
    is taken, and the last point of each run of equal k is kept.
    """
    import numpy as np

    def staircase(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order = np.lexsort((expected, k))
        k = k[order]
        last = np.ones(k.size, dtype=bool)
        last[:-1] = k[1:] != k[:-1]
        return k[last], np.minimum.accumulate(expected[order])[last]

    return {"kt": staircase(kt), "kr": staircase(kr)}
