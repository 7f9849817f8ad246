"""End-to-end distortion of a Gaussian source over a slow Rayleigh channel.

Three transmission strategies are evaluated at bandwidth ratio one:

- uncoded linear transmission, optimal per channel state;
- separation with a single-rate code declared useless in outage states;
- broadcast superposition across a continuum of virtual receivers combined
  with a successively refinable source code.

All rates are in nats.  The broadcast quantities I(gamma) (residual
interference seen at gain gamma) and D(gamma) (normalized distortion-to-go)
are defined by integrals over (gamma, gamma_bar]; with x = gamma/gamma_bar
both integrals reduce to exponential integrals E1(x/2), so I(gamma)*gamma_bar
and D(gamma) depend on x alone and the power threshold is a root in x that
depends only on a = power*gamma_bar.  Every broadcast quantity is evaluated
through these closed forms; tests check them against quadrature of the
defining integrals and against a high-precision oracle.  I(gamma) itself is
a test oracle: the threshold's root reads only its numerator.

The threshold root is 1 - 2a below a = 2^-47, where the remainder is below
rounding; above, it is found by one Newton iteration in ln x, within a few
ulps in about four evaluations, written so that nothing overflows up to the
float maximum.
"""

from __future__ import annotations

import math

from . import specfn
from .channels import RayleighSystem

__all__ = [
    "uncoded_state_distortion",
    "uncoded_expected_distortion",
    "outage_separation_distortion",
    "optimal_outage_for_distortion",
    "requirement_check",
    "bc_power_threshold",
    "bc_expected_distortion",
]

_E1_HALF = specfn.exp_integral(0.5)
_EXP_HALF = math.exp(-0.5)
# gamma_bar * I(x * gamma_bar) = (C - ln x) / x + O(1) as x -> 0+
_SEED_C = _EXP_HALF - 1.0 - _E1_HALF - specfn.EULER_GAMMA + math.log(2.0)
# below this a, the threshold ratio is 1 - 2a to rounding
_CLOSED_FORM_SNR = 2.0**-47
# below this a, bc_expected_distortion's closed form may cancel to 1
_CANCELLING_SNR = 2.0**-40
_EXP_M1 = math.exp(-1.0)


def uncoded_state_distortion(sys: RayleighSystem, gamma: float) -> float:
    """Best achievable MSE at gain gamma: sigma2 / (1 + power*gamma)."""
    if gamma < 0.0:
        raise ValueError(f"channel gain must be nonnegative, got {gamma}")
    return sys.sigma2 / (1.0 + sys.power * gamma)


def uncoded_expected_distortion(sys: RayleighSystem) -> float:
    """Expected MSE of uncoded transmission over the fading distribution.

    Closed form sigma2 * exp(1/a)/a * E1(1/a) with a = power*gamma_bar,
    which equals the direct average of sigma2/(1 + power*gamma); the scaled
    exp(x)*E1(x) keeps it finite where exp(1/a) alone would overflow, and
    scaling by sigma2 last keeps a sigma2 near the float maximum finite.
    """
    a = sys.snr_scale
    x = 1.0 / a
    if x == math.inf:  # a below 2^-1024: sigma2 * (1 - a + 2a^2 - ...) rounds to sigma2
        return sys.sigma2
    return sys.sigma2 * (specfn.scaled_exp_integral(x) / a)


def outage_separation_distortion(sys: RayleighSystem, q: float) -> float:
    """Expected MSE of single-rate separation at outage probability q.

    Outage states reconstruct by the source mean (cost sigma2); the rest get
    the distortion-rate value at the outage-q channel rate.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"outage probability must lie in [0, 1), got {q}")
    a = sys.snr_scale
    return q * sys.sigma2 + (1.0 - q) * sys.sigma2 / (1.0 - a * math.log1p(-q))


def optimal_outage_for_distortion(sys: RayleighSystem) -> tuple[float, float]:
    """Distortion-minimizing outage probability and its expected MSE.

    Closed form q* = 1 - exp(-2 / (1 + sqrt(1 + 4a))), a = power*gamma_bar;
    it agrees with the numeric minimizer to 1e-6.  sqrt(1 + 4a) is computed
    as 2 sqrt(a + 1/4), the same bits wherever 4a is finite, and finite
    up to the float maximum.
    """
    a = sys.snr_scale
    q_star = -math.expm1(-2.0 / (1.0 + 2.0 * math.sqrt(a + 0.25)))
    return q_star, outage_separation_distortion(sys, q_star)


def requirement_check(sys: RayleighSystem, q: float, dq: float) -> bool:
    """Whether separation can hit MSE target dq outside outage set q.

    True iff sigma2/dq < 1 - power*gamma_bar*ln(1-q), strictly: the source
    rate at dq must fall below the outage-q channel rate.
    """
    if dq <= 0.0:
        raise ValueError(f"distortion target must be positive, got {dq}")
    if not 0.0 <= q < 1.0:
        raise ValueError(f"outage probability must lie in [0, 1), got {q}")
    return sys.sigma2 / dq < 1.0 - sys.snr_scale * math.log1p(-q)


def _numerator(x: float) -> float:
    """int_1^x (1/2 - 1/t) exp(-t/2) dt in closed form."""
    return (_EXP_HALF - math.exp(-0.5 * x)) - (_E1_HALF - specfn.exp_integral(0.5 * x))


def _threshold_ratio(a: float) -> float:
    """The x in (0, 1] with gamma_bar * I(x * gamma_bar) = a, for finite a > 0.

    Below a = 2^-47 this is 1 - 2a: the O(a^2) remainder is below rounding,
    and at and below 2^-55 the result is 1.0, the correctly rounded root.
    Above, the seed is the root of the surrogate (1 - x) * k(x) = a * x with
    k(x) = C + (1/2 - C) * sqrt(x) - ln x, which has the interference's
    limits at 0+ and 1-; a few fixed-point steps find it to a few percent.
    Newton then runs in ln x on f(x) = a, using f'(x) = -(1/x - 1/2) *
    (1/x + f(x)), through w = x * f(x) = N(x) * exp(x/2), N the numerator:
    for x in (0, 1) neither w (at most about 750) nor x * a can overflow.
    It stops after a step below 2e-16, or before a step that is no smaller
    than the last one, which is rounding noise.
    """
    if a < _CLOSED_FORM_SNR:
        return 1.0 - 2.0 * a
    x = 0.5 / (0.5 + a)
    for _ in range(4):
        x = 1.0 / (1.0 + a / (_SEED_C + (0.5 - _SEED_C) * math.sqrt(x) - math.log(x)))
    last = math.inf
    for _ in range(12):
        w = _numerator(x) * math.exp(0.5 * x)
        step = math.log(w / (x * a)) * w / ((1.0 - 0.5 * x) * (1.0 + w))
        if not abs(step) < last:
            return x
        x *= math.exp(step)
        if not 0.0 < x < 1.0:
            raise ArithmeticError(f"threshold Newton left (0, 1) at power*gamma_bar {a}")
        if abs(step) < 2e-16:
            return x
        last = abs(step)
    raise ArithmeticError(f"threshold Newton did not settle at power*gamma_bar {a}")


def bc_power_threshold(sys: RayleighSystem) -> float:
    """Gain threshold at which the layered allocation exhausts the power budget.

    Solves interference(g) = power for g = x * gamma_bar, where x depends
    only on a = power*gamma_bar.
    """
    return _threshold_ratio(sys.snr_scale) * sys.gamma_bar


def _distortion_to_go(sys: RayleighSystem, gamma: float) -> float:
    """Normalized distortion-to-go D(gamma) of the optimal layered scheme.

    (exp(-1) - tail/gamma_bar) * x * exp(-(x - 1)/2) with x = gamma/gamma_bar,
    where tail/gamma_bar = exp(-1/2) * (E1(1/2) - E1(x/2)) is the closed
    form of int_{gamma_bar}^{gamma} exp(-(u + gamma_bar)/(2 gamma_bar)) / u du.
    """
    x = gamma / sys.gamma_bar
    tail = _EXP_HALF * (_E1_HALF - specfn.exp_integral(0.5 * x))
    return (math.exp(-1.0) - tail) * x * math.exp(-0.5 * (x - 1.0))


def bc_expected_distortion(sys: RayleighSystem) -> float:
    """Minimum expected MSE of broadcast superposition with a refinable source.

    sigma2 * (D(gamma_P) + Pr(gain < gamma_P)), where gamma_P is the power
    threshold; gains below gamma_P receive no layer and fall back to the
    source mean.

    With a = power*gamma_bar the exact value is sigma2 * (1 - g), where the
    gap g = (a - a^2 + O(a^3)) / e stays below a/e (checked against a
    40-digit oracle).  Below a = 2^-40 the closed form may cancel to 1 or
    above before the gap shows, so there the gap's leading terms are used
    instead.  The normalized value 1 - g is checked against (0, 1); 1 is
    accepted only where a/e is at most half the spacing below 1, that is,
    where 1 is the correctly rounded value.  Scaling by sigma2 comes last,
    so a product that underflows to 0 is returned as the rounded value.
    """
    a = sys.snr_scale
    if a < _CANCELLING_SNR:
        normalized = 1.0 - (a - a * a) * _EXP_M1
    else:
        gamma_p = bc_power_threshold(sys)
        normalized = _distortion_to_go(sys, gamma_p) + (-math.expm1(-gamma_p / sys.gamma_bar))
    if not (0.0 < normalized < 1.0 or (normalized == 1.0 and a * _EXP_M1 <= 2.0**-54)):
        raise ArithmeticError(f"normalized expected distortion {normalized} outside (0, 1)")
    return sys.sigma2 * normalized
