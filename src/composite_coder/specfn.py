"""Scalar special functions and numerical primitives.

Everything here is pure and reentrant: the only module state is
``integrate``'s node tables, each built once on first use and never changed
after, so all functions are safe to call concurrently.

Conventions that the rest of the package relies on:

- ``binary_entropy`` and its inverse work in bits (base-2 logs); the
  binary-channel code paths stay in bits throughout.
- ``exp_integral`` is the decaying exponential integral
  ``int_x^inf exp(-t)/t dt`` (the function usually written E1).  Some texts
  call this Ei with the opposite sign convention; we implement the integral
  literally to avoid that confusion.
- The entropy inverse is Newton's method on numpy arrays, so a scalar call
  and an array call run the same arithmetic and agree bit for bit; numpy is
  imported on the first call.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BudgetError",
    "ConvergenceError",
    "binary_entropy",
    "bss_distortion_rate",
    "bss_distortion_rate_array",
    "binary_convolve",
    "exp_integral",
    "scaled_exp_integral",
    "lambert_w",
    "golden_section",
    "integrate",
    "pareto_lower_hull",
]

EULER_GAMMA = 0.57721566490153286060651209008240243

_LN2 = math.log(2.0)
# Newton steps of each branch of _inverse_entropy: from its start each branch
# is within rounding of its root after 4 over the whole domain; one is margin
_NEWTON_STEPS = 5
# below this rate Newton runs on u = 1 - 2D, above it on D itself: each form
# is within about 4 ulps on its side, and the u form reaches 10 ulps near 1/2
_U_FORM_BELOW = 0.3
# inversions per numpy call: bounds the temporaries of a large mesh
_INVERSION_CHUNK = 2**16

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

_HALF_PI = 0.5 * math.pi
# integrate's trapezoidal sums run over |t| <= _DE_T_MAX.  Past it a tanh-sinh
# node is within 1e-37 d of its endpoint, where even an x^(-1/2) singularity
# at 0 adds terms below 1e-16 of the integral, and an exp-sinh node is beyond
# a + e^42 or within e^-42 of a.
_DE_T_MAX = 4.0
# halvings of the step from 1 before ConvergenceError, after which the sum
# holds 2^(_DE_LEVELS + 3) + 1 nodes; the package's integrands settle within 5
_DE_LEVELS = 8
# successive sums this close, relative, agree to rounding
_DE_REL_FLOOR = 1e-15


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its refinement budget."""


class BudgetError(ValueError):
    """A requested computation exceeds a desk-scale work or memory cap."""


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) bit, in bits; continuous at 0 and 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    # log1p keeps the (1 - p) term, about p/ln 2, where 1 - p rounds to 1
    return -(p * math.log2(p) + (1.0 - p) * math.log1p(-p) / _LN2)


def _inverse_entropy(t: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """The p in (0, 1/2] with h(p) = t = 1 - rate, for every t in (0, 1], by Newton.

    Of each pair (t, rate) one is exact and the other is 1 minus it, rounded.
    Where rate is rounded, c = (1 - t) - rate is 0, and rate is exact below
    1/2 (Sterbenz); where t is rounded, c is its rounding error (Fast2Sum).
    So t + c and rate are exact wherever they are read.  _NEWTON_STEPS steps:

    - rate >= _U_FORM_BELOW: on h(p) ln 2 = (t + c) ln 2, where the step is
      p <- ((t + c) ln 2 + ln(1-p)) / (ln(1-p) - ln p), from the inverse of
      Topsoe's bound h(p) <= (4p(1-p))^(1/ln 4).  p is kept at least the
      least subnormal, so ln p is finite.
    - rate < _U_FORM_BELOW: on R(u) ln 2 = u atanh(u) + ln(1-u^2)/2 = rate ln 2
      in u = 1 - 2p, where the step is u <- (rate ln 2 - ln(1-u^2)/2)/atanh(u),
      from u = sqrt(2 rate ln 2); p = (1 - u)/2 does not cancel as p -> 1/2.
      Rates are lifted to the least normal float, which keeps u^2 normal and
      changes no result: p rounds to 1/2 below a rate of about 1e-32.

    Every operation is an elementwise numpy ufunc, whose bits for an element
    do not depend on the array's length, so one element and a whole mesh
    agree bit for bit.
    """
    import numpy as np

    out = np.empty_like(t)
    high = np.flatnonzero(rate >= _U_FORM_BELOW)
    if high.size:
        t_hi = t[high]
        t_ln2 = t_hi * _LN2
        c_ln2 = ((1.0 - t_hi) - rate[high]) * _LN2
        x = t_hi ** math.log(4.0)
        p = x / (2.0 * (1.0 + np.sqrt(1.0 - x)))
        for _ in range(_NEWTON_STEPS):
            p = np.maximum(p, 2.0**-1074)
            lq = np.log1p(-p)
            p = (t_ln2 + lq + c_ln2) / (lq - np.log(p))
        out[high] = p
    low = np.flatnonzero(rate < _U_FORM_BELOW)
    if low.size:
        r_ln2 = np.maximum(rate[low], 2.0**-1022) * _LN2
        u = np.sqrt(2.0 * r_ln2)
        for _ in range(_NEWTON_STEPS):
            u = (r_ln2 - 0.5 * np.log1p(-u * u)) / np.arctanh(u)
        out[low] = 0.5 * (1.0 - u)
    return out


def bss_distortion_rate(r: float) -> float:
    """Distortion-rate function of a symmetric binary source under Hamming loss.

    Inverse of R(D) = 1 - h(D); rates at or above one bit are lossless.  It is
    ``bss_distortion_rate_array`` of one element.
    """
    import numpy as np

    return bss_distortion_rate_array(np.array([r], dtype=float)).item()


def bss_distortion_rate_array(rate: np.ndarray) -> np.ndarray:
    """``bss_distortion_rate`` of every element of a float array."""
    import numpy as np

    bad = rate[~(rate >= 0.0)]
    if bad.size:
        raise ValueError(f"rate must be nonnegative, got {bad[0].item()}")
    out = np.zeros_like(rate)
    lossy = np.flatnonzero(rate < 1.0)
    for start in range(0, lossy.size, _INVERSION_CHUNK):
        chunk = lossy[start : start + _INVERSION_CHUNK]
        r = rate[chunk]
        out[chunk] = _inverse_entropy(1.0 - r, r)
    return out


def binary_convolve(a: float, b: float) -> float:
    """Crossover of two cascaded binary symmetric channels: a(1-b) + b(1-a)."""
    if not 0.0 <= a <= 1.0 or not 0.0 <= b <= 1.0:
        raise ValueError(f"probabilities must lie in [0, 1], got ({a}, {b})")
    return a * (1.0 - b) + b * (1.0 - a)


def exp_integral(x: float) -> float:
    """Decaying exponential integral int_x^inf exp(-t)/t dt for x > 0.

    Alternating series up to 1; above that, ``scaled_exp_integral`` times
    exp(-x), within 4 ulps.  The series terms carry their own sign, and its
    partial sums lie in [0, x], so the stop test is absolute.  Near 1 the sum
    cancels against -gamma - ln x, which leaves the series within 18 ulps.
    """
    if not x > 0.0:
        raise ValueError(f"argument must be positive, got {x}")
    if x > 1.0:
        return scaled_exp_integral(x) * math.exp(-x)
    total = 0.0
    term = -1.0
    for k in range(1, 80):
        term *= -x / k
        contrib = term / k
        total += contrib
        if -1e-16 < contrib < 1e-16:
            break
    return -EULER_GAMMA - math.log(x) + total


def scaled_exp_integral(x: float) -> float:
    """exp(x) * E1(x) for x > 0, finite where E1 itself underflows.

    At and below 1 it is exp(x) times the series of ``exp_integral``, within
    14 ulps.  Above 1 it is the continued fraction of Abramowitz & Stegun
    5.1.22, 1/(x+1 - 1/(x+3 - 4/(x+5 - 9/(x+7 - ...)))), evaluated backward
    from depth n = floor(116/x) + 5, which never forms exp(x) and is within 3
    ulps.  Cut after the partial denominator x + 2n + 1, the fraction is the
    (n+1)-point Gauss-Laguerre rule for int_0^inf exp(-t)/(x+t) dt, whose
    error is int exp(-t) L(t)^2/(x+t) dt / L(-x)^2 with L the Laguerre
    polynomial of degree n + 1.  That is positive, so the value exceeds
    1/(x+1), and at most 1/(x L(-x)^2), so the relative truncation error is
    at most (1 + 1/x)/L(-x)^2.  L(-x) grows with n and x, and the depth rule
    keeps this bound below 2^-54, under half an ulp, for every x > 1.
    """
    if not x > 1.0:
        return math.exp(x) * exp_integral(x)
    t = 0.0
    for k in range(int(116.0 / x) + 5, 0, -1):
        t = k * k / (x + (2 * k + 1) - t)
    return 1.0 / (x + 1.0 - t)


def lambert_w(z: float) -> float:
    """Principal branch of w*exp(w) = z for z >= 0, by Halley's iteration.

    Above z = 1e300, where exp(w) nears overflow, Newton solves the log form
    w + ln w = ln z instead (Corless et al., Adv. Comput. Math. 5, 1996).
    """
    if z < 0.0:
        raise ValueError(f"argument must be nonnegative, got {z}")
    if z == 0.0:
        return 0.0
    if z > 1e300:
        logz = math.log(z)
        w = logz - math.log(logz)
        for _ in range(8):
            step = (w + math.log(w) - logz) * w / (1.0 + w)
            w -= step
            if abs(step) <= 1e-16 * w:
                break
        return w
    if z < math.e:
        w = z / (1.0 + z)
    else:
        logz = math.log(z)
        w = logz - math.log(logz)
    for _ in range(200):
        ew = math.exp(w)
        resid = w * ew - z
        denom = ew * (w + 1.0) - (w + 2.0) * resid / (2.0 * w + 2.0)
        step = resid / denom
        w -= step
        if abs(step) <= 1e-16 * max(1.0, abs(w)):
            break
    return w


def golden_section(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Golden-section search for the minimum of a unimodal f on [lo, hi].

    The bracket shrinks by the golden ratio per evaluation until it is at
    most ``tol`` wide; returns (x, f(x)) for the better of its two interior
    points, the lower one winning a tie.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    h = hi - lo
    c = lo + _INV_PHI2 * h
    d = lo + _INV_PHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            h = hi - lo
            c = lo + _INV_PHI2 * h
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            h = hi - lo
            d = lo + _INV_PHI * h
            fd = f(d)
    return (d, fd) if fd < fc else (c, fc)


@functools.cache
def _de_nodes(level: int, finite: bool) -> tuple[tuple[float, float, float], ...]:
    """integrate's per-node constants at step h = 2^-level, the new t = k h only.

    With u = (pi/2) sinh t: (e^u cosh u, cosh t, cosh^2 u) for tanh-sinh and
    (e^u, e^-u, (pi/2) cosh t) for exp-sinh.  They depend on the level alone,
    so each table is built on first use and shared by every later call.
    """
    h = 0.5**level
    rows = []
    for k in range(1, int(_DE_T_MAX / h) + 1, 2 if level else 1):
        t = k * h
        e = math.exp(_HALF_PI * math.sinh(t))
        cu = 0.5 * (e + 1.0 / e)
        ct = math.cosh(t)
        rows.append((e * cu, ct, cu * cu) if finite else (e, 1.0 / e, _HALF_PI * ct))
    return tuple(rows)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> float:
    """Double-exponential integral of f over [a, b]; b may be +infinity.

    The rules of Takahasi & Mori (Publ. RIMS 9, 1974) are trapezoidal sums in
    t over |t| <= _DE_T_MAX = 4 with u = (pi/2) sinh t:

    - tanh-sinh on a finite range, with d = (b - a)/2, nodes a + delta and
      b - delta, where delta = d (1 - tanh u) = d / (e^u cosh u) is formed
      without cancellation, and weight d (pi/2) cosh t / cosh^2 u;
    - exp-sinh on [a, inf), with nodes a + e^u and a + e^-u and weights
      (pi/2) cosh t times the same e^u and e^-u.

    The step halves from 1, adding the new nodes to the sum so far (their
    constants come from ``_de_nodes``, tabulated per level on first use), until
    two successive sums differ by at most max(tol, _DE_REL_FLOOR * |sum|).
    Nodes come within 1e-37 d of an endpoint at 0, so f may have an
    integrable singularity of order up to 1/2 there; at any other finite
    endpoint the nearest nodes round onto it, so f must be finite there.  On
    [a, inf) f must be bounded near a and decay fast enough for its tail
    past a + e^42 to vanish.  Raises ConvergenceError after _DE_LEVELS = 8
    halvings.
    """
    if b == -math.inf or a == -math.inf:
        raise ValueError("lower-unbounded ranges are not supported")
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, tol=tol)
    finite = not math.isinf(b)
    if finite:
        d = 0.5 * (b - a)
        hd = _HALF_PI * d
        center = f(a + d) * hd
    else:
        center = f(a + 1.0) * _HALF_PI
    total, estimate, h = center, math.nan, 1.0
    for level in range(_DE_LEVELS + 1):
        nodes = _de_nodes(level, finite)
        if finite:
            total += sum(
                (f(a + (delta := d / ec)) + f(b - delta)) * (hd * ct / c2) for ec, ct, c2 in nodes
            )
        else:
            total += sum((f(a + e) * e + f(a + ie) / e) * w for e, ie, w in nodes)
        value = h * total
        if abs(value - estimate) <= max(tol, _DE_REL_FLOOR * abs(value)):
            return value
        estimate, h = value, 0.5 * h
    raise ConvergenceError(f"double-exponential quadrature did not settle in {_DE_LEVELS} halvings")


def pareto_lower_hull(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Lower-left convex hull of a set of (x, y) points to be jointly minimized.

    Dominated points are discarded first (ties broken toward smaller y), then
    a monotone chain keeps the convex minorant.  The result is sorted by
    increasing x, and every input point is dominated by, or sits on, the
    returned polyline (the time-sharing closure of the input set).
    """
    if not points:
        raise ValueError("need at least one point")
    ordered = sorted((float(x), float(y)) for x, y in points)
    frontier: list[tuple[float, float]] = []
    best_y = math.inf
    for x, y in ordered:
        if y < best_y:
            frontier.append((x, y))
            best_y = y
    hull: list[tuple[float, float]] = []
    for p in frontier:
        while len(hull) >= 2:
            o, q = hull[-2], hull[-1]
            cross = (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull
