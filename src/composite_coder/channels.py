"""Channel models and their capacity metrics.

Two worked channel families are covered:

- ``CompositeBsc``: a binary symmetric channel whose crossover is drawn once
  (good state with probability 1-p, bad state with probability p) and then
  held fixed; the receiver learns the state, the transmitter never does.
- ``RayleighSystem``: a unit-bandwidth Gaussian source over a slowly fading
  AWGN channel with exponentially distributed power gain.

BSC-side rates are in bits per channel use; Gaussian-side rates are in nats.
The conversion is never implicit: each function documents its unit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import specfn

__all__ = [
    "CompositeBsc",
    "RayleighSystem",
    "RatePair",
    "rayleigh_outage_threshold",
    "capacity_vs_outage_rayleigh",
    "outage_capacity_rayleigh",
    "optimal_outage_for_capacity",
    "capacity_vs_outage_bsc",
    "bsc_bc_rate_region",
    "bsc_expected_capacity",
]


@dataclass(frozen=True)
class CompositeBsc:
    """Two-state composite binary symmetric channel.

    alpha1, alpha2: crossover probabilities of the good and bad state, with
        0 < alpha1 < alpha2 < 1/2.
    p: probability that the bad state is drawn.
    b: bandwidth expansion ratio (channel uses per source bit), b >= 1.

    A warning is emitted when b*(1 - h(alpha1)) >= 1, i.e. when even the good
    state could carry the source losslessly; the distortion analysis in
    :mod:`composite_coder.bss_system` targets the lossy regime.
    """

    alpha1: float
    alpha2: float
    p: float
    b: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha1 < self.alpha2 < 0.5:
            raise ValueError(
                f"need 0 < alpha1 < alpha2 < 1/2, got ({self.alpha1}, {self.alpha2})"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"state probability must lie in [0, 1], got {self.p}")
        if self.b < 1.0:
            raise ValueError(f"bandwidth ratio must be >= 1, got {self.b}")
        if self.b * (1.0 - specfn.binary_entropy(self.alpha1)) >= 1.0:
            warnings.warn(
                "good state supports lossless transmission; the lossy-regime "
                "analysis assumes b*(1 - h(alpha1)) < 1",
                stacklevel=3,  # past the dataclass-generated __init__, to the caller
            )


@dataclass(frozen=True)
class RayleighSystem:
    """Gaussian source over a slow Rayleigh-fading unit-noise AWGN channel.

    sigma2: source variance (MSE units).
    power: transmit power constraint.
    gamma_bar: mean channel power gain; the gain density is
        (1/gamma_bar) * exp(-gamma/gamma_bar).
    """

    sigma2: float
    power: float
    gamma_bar: float

    def __post_init__(self) -> None:
        # written as "not > 0" so that NaN is rejected too
        if not (self.sigma2 > 0.0 and self.power > 0.0 and self.gamma_bar > 0.0):
            raise ValueError("sigma2, power and gamma_bar must all be positive")

    @property
    def snr_scale(self) -> float:
        """The product power * gamma_bar that every closed form depends on."""
        return self.power * self.gamma_bar


@dataclass(frozen=True)
class RatePair:
    """Boundary point of the two-state broadcast region, bits per channel use.

    r1 is the refinement rate (decodable in the good state only), r2 the base
    rate (decodable in both states).
    """

    r1: float
    r2: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r1 <= 1.0 or not 0.0 <= self.r2 <= 1.0:
            raise ValueError(f"rates must lie in [0, 1], got ({self.r1}, {self.r2})")


def _check_outage(q: float) -> None:
    if not 0.0 <= q < 1.0:
        raise ValueError(f"outage probability must lie in [0, 1), got {q}")


def rayleigh_outage_threshold(sys: RayleighSystem, q: float) -> float:
    """Gain threshold below which outage is declared: -gamma_bar * ln(1-q)."""
    _check_outage(q)
    return -sys.gamma_bar * math.log1p(-q)


def capacity_vs_outage_rayleigh(sys: RayleighSystem, q: float) -> float:
    """Largest rate (nats/use) decodable outside an outage set of probability q."""
    _check_outage(q)
    return math.log1p(sys.power * rayleigh_outage_threshold(sys, q))


def outage_capacity_rayleigh(sys: RayleighSystem, q: float) -> float:
    """Long-term average rate (1-q) * C_q in nats per channel use."""
    _check_outage(q)
    return (1.0 - q) * capacity_vs_outage_rayleigh(sys, q)


def optimal_outage_for_capacity(sys: RayleighSystem) -> float:
    """Outage probability maximizing the long-term average rate.

    Closed form 1 - exp(-(exp(W(a)) - 1)/a) with a = power * gamma_bar; it
    agrees with the numeric maximizer of the outage capacity to 1e-6.
    """
    a = sys.snr_scale
    return -math.expm1(-(math.exp(specfn.lambert_w(a)) - 1.0) / a)


def capacity_vs_outage_bsc(ch: CompositeBsc, q: float) -> float:
    """Outage-q rate of the two-state BSC, bits per channel use.

    The state is drawn once and held, so only two strategies exist: serve
    both states (q < p) or write the bad state off as outage (q >= p).  Any
    scaling by the bandwidth ratio is left to the source-side analysis.
    """
    _check_outage(q)
    if q < ch.p:
        return 1.0 - specfn.binary_entropy(ch.alpha2)
    return 1.0 - specfn.binary_entropy(ch.alpha1)


def bsc_bc_rate_region(ch: CompositeBsc, beta: float) -> RatePair:
    """Boundary of the degraded-BSC broadcast region at cloud parameter beta.

    r1 = h(alpha1 conv beta) - h(alpha1), r2 = 1 - h(alpha2 conv beta).
    beta = 0 puts all rate in the base layer, beta = 1/2 in the refinement.
    """
    if not 0.0 <= beta <= 0.5:
        raise ValueError(f"beta must lie in [0, 1/2], got {beta}")
    r1 = specfn.binary_entropy(specfn.binary_convolve(ch.alpha1, beta)) - specfn.binary_entropy(
        ch.alpha1
    )
    r2 = 1.0 - specfn.binary_entropy(specfn.binary_convolve(ch.alpha2, beta))
    return RatePair(r1=max(r1, 0.0), r2=max(r2, 0.0))


def bsc_expected_capacity(ch: CompositeBsc) -> tuple[float, float]:
    """Maximum state-averaged rate over the broadcast boundary, with maximizer.

    Maximizes (1-p)*(r1+r2) + p*r2 = (1-p)*r1 + r2 over beta in [0, 1/2] by
    golden section, which finds the maximum because the objective is
    unimodal.  With t = 1/2 - beta and c_i = 1 - 2 alpha_i, so c1 > c2 > 0,
    its slope in beta is (2/ln 2) * [(1-p) c1 atanh(2 c1 t) - c2 atanh(2 c2 t)].
    That is positive iff (1-p) c1/c2 > R(t) = atanh(2 c2 t)/atanh(2 c1 t), and
    d ln R/dt = (phi(2 c2 t) - phi(2 c1 t))/t with phi(y) = y/((1-y^2) atanh y).
    Since (1-y^2) atanh(y)/y = 1 - sum_k (1/(2k-1) - 1/(2k+1)) y^(2k), phi is
    increasing, so R increases in beta: the slope changes sign at most once,
    from positive to negative.

    Golden section evaluates interior points only.  At beta = 1/2 the slope
    is 0, but at beta = 0 it can be steep (about -20 bits per unit beta at
    alpha2 = 1e-6, p = 1), so that endpoint is compared directly.  Returns
    (expected capacity in bits per use, maximizing beta).
    """

    def negated(beta: float) -> float:
        rates = bsc_bc_rate_region(ch, beta)
        return -((1.0 - ch.p) * (rates.r1 + rates.r2) + ch.p * rates.r2)

    beta_star, neg_value = specfn.golden_section(negated, 0.0, 0.5, tol=1e-12)
    at_zero = negated(0.0)
    if at_zero < neg_value:
        return -at_zero, 0.0
    return -neg_value, beta_star
