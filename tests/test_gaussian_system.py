"""Tests for the Gaussian-over-slow-fading distortion analysis."""

import math
import random
import sys

import pytest

from composite_coder import gaussian_system as gs
from composite_coder import specfn
from composite_coder.channels import RayleighSystem

UNIT = RayleighSystem(sigma2=1.0, power=1.0, gamma_bar=1.0)

# golden values recorded from the quadrature/bisection oracles in this file
GOLDEN_INTERFERENCE_HALF = 0.801845409239  # _interference at gamma_bar=1, gamma=0.5
GOLDEN_POWER_THRESHOLD = 0.4582638957  # bc_power_threshold at sigma2=P=gamma_bar=1
GOLDEN_BC_DISTORTION = 0.7902201994  # bc_expected_distortion, same point


def _scaled_interference(x):
    """gamma_bar * I(x * gamma_bar); decreases from +inf at 0+ to 0 at x = 1."""
    return gs._numerator(x) / (x * math.exp(-0.5 * x))


def _interference(sys, gamma):
    """Residual interference level I(gamma) of the optimal layered allocation.

    Defined for 0 < gamma <= gamma_bar as the ratio of the integral of
    (1/u - 1/(2 gamma_bar)) * exp(-u/(2 gamma_bar)) over (gamma, gamma_bar]
    to gamma * exp(-gamma/(2 gamma_bar)); it decreases from +infinity at 0+
    to zero at gamma_bar.  The package solves I = P through its numerator
    alone; this closed form is the oracle for the threshold and the profile.
    """
    gbar = sys.gamma_bar
    if not 0.0 < gamma <= gbar:
        raise ValueError(f"gamma must lie in (0, gamma_bar], got {gamma}")
    if gamma == gbar:
        return 0.0
    return _scaled_interference(gamma / gbar) / gbar


class TestUncoded:
    def test_zero_gain_returns_variance(self):
        assert gs.uncoded_state_distortion(UNIT, 0.0) == 1.0

    def test_unit_point(self):
        assert gs.uncoded_state_distortion(UNIT, 1.0) == 0.5

    def test_monotone_in_gain(self):
        values = [gs.uncoded_state_distortion(UNIT, g / 10.0) for g in range(40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_expected_matches_quadrature(self):
        for scale in (0.5, 1.0, 2.0, 5.0):
            sys = RayleighSystem(sigma2=1.0, power=scale, gamma_bar=1.0)
            direct = specfn.integrate(
                lambda g: math.exp(-g) / (1.0 + scale * g), 0.0, math.inf, tol=1e-13
            )
            assert gs.uncoded_expected_distortion(sys) == pytest.approx(direct, rel=1e-8)

    def test_linear_in_variance(self):
        doubled = RayleighSystem(sigma2=2.0, power=1.0, gamma_bar=1.0)
        assert gs.uncoded_expected_distortion(doubled) == pytest.approx(
            2.0 * gs.uncoded_expected_distortion(UNIT), rel=1e-12
        )

    def test_finite_at_the_largest_variance(self):
        # sigma2/a alone overflows at a = 1/2
        sigma2 = 1.7976931348623157e308
        huge = gs.uncoded_expected_distortion(RayleighSystem(sigma2=sigma2, power=0.5, gamma_bar=1.0))
        unit = gs.uncoded_expected_distortion(RayleighSystem(sigma2=1.0, power=0.5, gamma_bar=1.0))
        assert math.isfinite(huge) and huge < sigma2
        assert huge == pytest.approx(sigma2 * unit, rel=1e-15)

    def test_vanishes_at_high_snr(self):
        strong = RayleighSystem(sigma2=1.0, power=1e6, gamma_bar=1.0)
        assert gs.uncoded_expected_distortion(strong) < 2e-5

    @pytest.mark.parametrize("a", [5e-324, 1e-310, 1e-308, 2.0**-60])
    def test_variance_at_vanishing_snr(self, a):
        # 1/a overflows at the two subnormals, where exp(x)*E1(x) of inf gave 0.0
        sys = RayleighSystem(sigma2=3.0, power=a, gamma_bar=1.0)
        assert gs.uncoded_expected_distortion(sys) == 3.0

    def test_printed_distortion_matches_the_oracle(self, capsys):
        # the tie rule of TestNewtonThreshold's printed-digit test, on
        # exp(1/a) E1(1/a) / a.  At a = 0.6909970498524927 the exact value is
        # 0.66587362344349885; the forward Lentz fraction was 16 ulps high and
        # printed 0.665873623444
        from composite_coder import cli

        oracle = pytest.importorskip("mp_oracle")
        mpmath = pytest.importorskip("mpmath")
        a_tie = 0.6909970498524927
        grid = _log_uniform(48, 1500) + [10.0 ** (k / 50) for k in range(-100, 251)]
        grid += [0.25 + k * 7.75 / 2000 for k in range(2001)] + [a_tie]
        for a in grid:
            sys_ = RayleighSystem(sigma2=1.0, power=a, gamma_bar=1.0)
            value = gs.uncoded_expected_distortion(sys_)
            with mpmath.workdps(oracle.DPS):
                exact = oracle.scaled_e1(1 / mpmath.mpf(a)) / a
            nearest = float(exact)
            width = 2.0 * math.ulp(nearest)
            if oracle.g12(nearest - width) == oracle.g12(nearest + width):
                assert oracle.g12(value) == oracle.g12(nearest), a
            else:
                assert oracle.ulps(value, exact) <= 2.0, a
        tie = RayleighSystem(sigma2=1.0, power=a_tie, gamma_bar=1.0)
        assert f"{gs.uncoded_expected_distortion(tie):.12g}" == "0.665873623443"
        assert cli.main(["gaussian-compare", "--p-grid", f"{a_tie!r},1"]) == 0
        row = capsys.readouterr().out.splitlines()[-2]
        assert row.split(",")[1] == "0.665873623443"


class TestOutageSeparation:
    def test_endpoints_return_variance(self):
        assert gs.outage_separation_distortion(UNIT, 0.0) == 1.0
        assert gs.outage_separation_distortion(UNIT, 1.0 - 1e-12) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_direct_evaluation(self):
        q = 0.461
        expected = q + (1.0 - q) / (1.0 - math.log(1.0 - q))
        assert gs.outage_separation_distortion(UNIT, q) == pytest.approx(expected, abs=1e-14)

    def test_closed_form_optimum(self):
        q_star, de = gs.optimal_outage_for_distortion(UNIT)
        assert q_star == pytest.approx(1.0 - math.exp(-2.0 / (1.0 + math.sqrt(5.0))), abs=1e-14)
        assert de == pytest.approx(gs.outage_separation_distortion(UNIT, q_star), abs=1e-15)

    def test_closed_form_scale_two(self):
        sys = RayleighSystem(sigma2=1.0, power=2.0, gamma_bar=1.0)
        q_star, _ = gs.optimal_outage_for_distortion(sys)
        assert q_star == pytest.approx(1.0 - math.exp(-0.5), abs=1e-14)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 5.0])
    def test_matches_numeric_minimizer(self, scale):
        sys = RayleighSystem(sigma2=1.0, power=scale, gamma_bar=1.0)
        closed, _ = gs.optimal_outage_for_distortion(sys)
        numeric, _ = specfn.golden_section(
            lambda q: gs.outage_separation_distortion(sys, q), 1e-9, 1.0 - 1e-9, tol=1e-9
        )
        assert closed == pytest.approx(numeric, abs=1e-6)

    def test_differs_from_capacity_optimal_outage(self):
        from composite_coder.channels import optimal_outage_for_capacity

        q_d, _ = gs.optimal_outage_for_distortion(UNIT)
        assert abs(q_d - optimal_outage_for_capacity(UNIT)) > 0.01


class TestRequirementCheck:
    def test_variance_target_feasible(self):
        assert gs.requirement_check(UNIT, 0.2, 1.0)

    def test_tiny_target_infeasible(self):
        assert not gs.requirement_check(UNIT, 0.5, 1e-9)

    def test_worked_inequality(self):
        # 1/0.6 = 1.667 against 1 + ln 2 = 1.693
        assert gs.requirement_check(UNIT, 0.5, 0.6)

    def test_monotone_in_both_arguments(self):
        assert gs.requirement_check(UNIT, 0.5, 0.6)
        assert gs.requirement_check(UNIT, 0.6, 0.6)
        assert gs.requirement_check(UNIT, 0.5, 0.7)


class TestBroadcastAllocation:
    def test_interference_vanishes_at_mean_gain(self):
        assert _interference(UNIT, 1.0) == 0.0

    def test_interference_golden_value(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        oracle, _ = scipy_integrate.quad(
            lambda u: (0.5 - 1.0 / u) * math.exp(-u / 2.0), 1.0, 0.5
        )
        oracle /= 0.5 * math.exp(-0.25)
        value = _interference(UNIT, 0.5)
        assert value == pytest.approx(oracle, rel=1e-9)
        assert value == pytest.approx(GOLDEN_INTERFERENCE_HALF, abs=1e-9)

    def test_interference_nonincreasing(self):
        gamma_p = gs.bc_power_threshold(UNIT)
        grid = [gamma_p + (1.0 - gamma_p) * i / 99 for i in range(100)]
        values = [_interference(UNIT, g) for g in grid]
        assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))
        assert all(v >= 0.0 for v in values)

    def test_threshold_defining_identity(self):
        gamma_p = gs.bc_power_threshold(UNIT)
        assert _interference(UNIT, gamma_p) == pytest.approx(1.0, abs=1e-8)
        assert gamma_p == pytest.approx(GOLDEN_POWER_THRESHOLD, abs=1e-8)

    def test_threshold_approaches_mean_gain_at_low_power(self):
        weak = RayleighSystem(sigma2=1.0, power=1e-7, gamma_bar=1.0)
        assert gs.bc_power_threshold(weak) == pytest.approx(1.0, abs=1e-3)

    def test_distortion_to_go_at_mean_gain(self):
        assert gs._distortion_to_go(UNIT, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_expected_distortion_in_range_and_golden(self):
        value = gs.bc_expected_distortion(UNIT)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(GOLDEN_BC_DISTORTION, abs=1e-8)

    def test_expected_distortion_between_uncoded_and_outage(self):
        value = gs.bc_expected_distortion(UNIT)
        _, outage = gs.optimal_outage_for_distortion(UNIT)
        assert gs.uncoded_expected_distortion(UNIT) < value < outage


def _profile_density(sys, g):
    """Layer power density -dI/dg of the optimal profile, by the quotient rule."""
    gbar = sys.gamma_bar
    num = gs._numerator(g / gbar)
    den = g * math.exp(-g / (2.0 * gbar))
    dnum = (1.0 / (2.0 * gbar) - 1.0 / g) * math.exp(-g / (2.0 * gbar))
    dden = math.exp(-g / (2.0 * gbar)) * (1.0 - g / (2.0 * gbar))
    return (num * dden - dnum * den) / (den * den)


def _rate_by_quadrature(sys, gamma):
    """Decodable rate (nats/use) at gain gamma: int u rho(u)/(1 + u I(u)) du.

    The integral runs over the profile's support [gamma_P, gamma_bar] below
    gamma; gains past gamma_bar saturate at the full rate.
    """
    gamma_p = gs.bc_power_threshold(sys)
    upper = min(gamma, sys.gamma_bar)
    if upper <= gamma_p:
        return 0.0
    return specfn.integrate(
        lambda u: u * _profile_density(sys, u) / (1.0 + u * _interference(sys, u)),
        gamma_p,
        upper,
        tol=1e-10,
    )


class TestRateProfile:
    # the rate profile of the optimal layered allocation, as a quadrature
    # oracle for the closed forms of bc_expected_distortion
    def test_zero_rate_below_support(self):
        gamma_p = gs.bc_power_threshold(UNIT)
        assert _rate_by_quadrature(UNIT, 0.5 * gamma_p) == 0.0

    def test_rate_nondecreasing(self):
        gamma_p = gs.bc_power_threshold(UNIT)
        grid = [gamma_p + (1.2 - gamma_p) * i / 99 for i in range(100)]
        rates = [_rate_by_quadrature(UNIT, g) for g in grid]
        assert all(a <= b + 1e-10 for a, b in zip(rates, rates[1:]))

    def test_profile_reproduces_expected_distortion(self):
        # quadrature-composition oracle for the expected distortion:
        # sigma2 * E[exp(-R(gamma))] over the fading density
        gamma_p, gbar = gs.bc_power_threshold(UNIT), UNIT.gamma_bar
        head = -math.expm1(-gamma_p)  # rate zero below the support
        body = specfn.integrate(
            lambda g: math.exp(-_rate_by_quadrature(UNIT, g)) * math.exp(-g),
            gamma_p,
            gbar,
            tol=1e-7,
        )
        tail = math.exp(-_rate_by_quadrature(UNIT, gbar)) * math.exp(-gbar)
        composed = head + body + tail
        assert composed == pytest.approx(gs.bc_expected_distortion(UNIT), rel=0.01)

    def test_density_positive_on_support(self):
        gamma_p, gbar = gs.bc_power_threshold(UNIT), UNIT.gamma_bar
        for i in range(1, 10):
            g = gamma_p + (gbar - gamma_p) * i / 10
            assert _profile_density(UNIT, g) > 0.0

    @pytest.mark.parametrize("power, gbar", [(1.0, 1.0), (4.0, 0.5), (0.2, 3.0)])
    def test_rate_closed_form(self, power, gbar):
        # with x = gamma/gamma_bar the rate is ln(x/x_P) - (x - x_P)/2 on [x_P, 1]
        sys = RayleighSystem(sigma2=1.0, power=power, gamma_bar=gbar)
        x_p = gs._threshold_ratio(power * gbar)
        for k in range(1, 9):
            x = x_p + (1.0 - x_p) * k / 8
            closed = math.log(x / x_p) - 0.5 * (x - x_p)
            assert _rate_by_quadrature(sys, x * gbar) == pytest.approx(closed, abs=1e-12)


class TestSchemeOrdering:
    @pytest.mark.parametrize("power", [0.25, 1.0, 4.0, 8.0])
    def test_ordering_and_gaps(self, power):
        sys = RayleighSystem(sigma2=1.0, power=power, gamma_bar=1.0)
        uncoded = gs.uncoded_expected_distortion(sys)
        broadcast = gs.bc_expected_distortion(sys)
        _, outage = gs.optimal_outage_for_distortion(sys)
        assert uncoded < broadcast < outage
        assert (outage - broadcast) < (broadcast - uncoded)

    def test_all_schemes_nonincreasing_in_power(self):
        powers = [0.5, 1.0, 2.0, 4.0]
        series = []
        for power in powers:
            sys = RayleighSystem(sigma2=1.0, power=power, gamma_bar=1.0)
            series.append(
                (
                    gs.uncoded_expected_distortion(sys),
                    gs.bc_expected_distortion(sys),
                    gs.optimal_outage_for_distortion(sys)[1],
                )
            )
        for a, b in zip(series, series[1:]):
            assert all(x > y for x, y in zip(a, b))


def _quadrature_numerator(gbar, gamma):
    # the defining integral of the interference numerator
    return specfn.integrate(
        lambda u: (1.0 / (2.0 * gbar) - 1.0 / u) * math.exp(-u / (2.0 * gbar)),
        gbar,
        gamma,
        tol=1e-12,
    )


def _quadrature_distortion_to_go(gbar, gamma):
    # the defining integral of the distortion-to-go tail
    tail = specfn.integrate(
        lambda u: math.exp(-(u + gbar) / (2.0 * gbar)) * (gbar / u), gbar, gamma, tol=1e-12
    )
    denominator = (gbar / gamma) * math.exp((gamma - gbar) / (2.0 * gbar))
    return (math.exp(-1.0) - tail / gbar) / denominator


class TestClosedFormsAgainstQuadrature:
    @pytest.mark.parametrize("gbar", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("x", [0.01, 0.1, 0.3, 0.5, 0.9, 0.999, 1.0])
    def test_numerator_and_distortion_to_go(self, gbar, x):
        sys = RayleighSystem(sigma2=1.0, power=1.0, gamma_bar=gbar)
        gamma = x * gbar
        assert gs._numerator(gamma / gbar) == pytest.approx(
            _quadrature_numerator(gbar, gamma), rel=1e-10, abs=1e-14
        )
        assert gs._distortion_to_go(sys, gamma) == pytest.approx(
            _quadrature_distortion_to_go(gbar, gamma), rel=1e-10
        )

    @pytest.mark.parametrize("gbar", [0.5, 1.0, 3.0])
    def test_interference_is_ratio_of_numerator(self, gbar):
        sys = RayleighSystem(sigma2=1.0, power=1.0, gamma_bar=gbar)
        for x in (0.05, 0.4, 0.8):
            gamma = x * gbar
            expected = _quadrature_numerator(gbar, gamma) / (gamma * math.exp(-x / 2.0))
            assert _interference(sys, gamma) == pytest.approx(expected, rel=1e-10)

    def test_profile_density_is_minus_interference_slope(self):
        for g in (0.5, 0.7, 0.9):
            h = 1e-5
            above, below = _interference(UNIT, g + h), _interference(UNIT, g - h)
            slope = (above - below) / (2.0 * h)
            assert _profile_density(UNIT, g) == pytest.approx(-slope, rel=1e-7)


def _mp_oracle(a):
    """(threshold ratio x, expected distortion over sigma2) at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        half = mp.mpf(1) / 2

        def scaled_interference(x):
            num = (mp.exp(-half) - mp.exp(-x / 2)) - (mp.e1(half) - mp.e1(x / 2))
            return num / (x * mp.exp(-x / 2))

        a = mp.mpf(a)
        lo, hi = half, mp.mpf(1)
        while scaled_interference(lo) < a:
            hi, lo = lo, lo / 2
        for _ in range(200):
            mid = (lo + hi) / 2
            if scaled_interference(mid) < a:
                hi = mid
            else:
                lo = mid
        x = (lo + hi) / 2
        tail = mp.exp(-half) * (mp.e1(half) - mp.e1(x / 2))
        de = (mp.exp(-1) - tail) * x * mp.exp(-(x - 1) / 2) - mp.expm1(-x)
        return x, de


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("k", range(-8, 9))
    @pytest.mark.parametrize("gbar", [0.25, 1.0, 4.0])
    def test_threshold_and_distortion(self, k, gbar):
        # gamma_bar is a power of two, so power*gamma_bar is exactly 10^k
        a = 10.0**k
        x, de = _mp_oracle(a)
        sys = RayleighSystem(sigma2=1.0, power=a / gbar, gamma_bar=gbar)
        assert sys.snr_scale == a
        threshold = gs.bc_power_threshold(sys)
        distortion = gs.bc_expected_distortion(sys)
        assert abs(threshold / (float(x) * gbar) - 1.0) <= 1e-13
        assert abs(distortion / float(de) - 1.0) <= 1e-13


def _log_uniform(seed, n, lo=-47.0, hi=996.0):
    rng = random.Random(seed)
    return [2.0 ** rng.uniform(lo, hi) for _ in range(n)]


class TestNewtonThreshold:
    def test_within_8_ulps_of_the_oracle(self):
        # near x = 1 (a below about 0.1) the interference's own rounding
        # error spreads the computed root over several ulps for any solver:
        # on 9,000 points with a in [2^-47, 16] the worst was 8.4 ulps, and
        # 9.6 for bisection.  Below 2^-140 the 45-digit oracle cannot
        # resolve 1 - x.
        oracle = pytest.importorskip("mp_oracle")
        edges = [2.0**-47, math.nextafter(2.0**-47, 0.0), 2.0**1000, sys.float_info.max]
        for a in _log_uniform(26, 500, lo=-140.0, hi=1023.9) + edges:
            x = gs._threshold_ratio(a)
            exact, _ = oracle.broadcast_threshold(a, x)
            assert oracle.ulps(x, exact) <= 8.0, a
        # the correctly rounded root at and below 2^-55
        for a in (2.0**-55, 1e-17, 1e-100, sys.float_info.min, 5e-324):
            assert gs._threshold_ratio(a) == 1.0, a

    def test_printed_distortion_matches_the_oracle(self):
        # tie rule: the oracle is rounded to the nearest double, and both are
        # printed by Python's correctly rounded .12g.  Where a 12-digit
        # midpoint lies within 2 ulps of the oracle, a value a few ulps off
        # may print either neighbour; there it must be within 2 ulps.  One
        # point of this sample, a = 10^3.74, is such a near tie: the exact
        # value is 0.1 ulp under the midpoint, and the closed form, 0.83 ulp
        # above it, prints the digit above, as it did with bisection.
        oracle = pytest.importorskip("mp_oracle")
        grid = _log_uniform(27, 1500) + [10.0 ** (k / 50) for k in range(-100, 251)]
        for a in grid:
            sys_ = RayleighSystem(sigma2=1.0, power=a, gamma_bar=1.0)
            value = gs.bc_expected_distortion(sys_)
            _, exact = oracle.broadcast_threshold(a, gs._threshold_ratio(a))
            nearest = float(exact)
            width = 2.0 * math.ulp(nearest)
            if oracle.g12(nearest - width) == oracle.g12(nearest + width):
                assert oracle.g12(value) == oracle.g12(nearest), a
            else:
                assert oracle.ulps(value, exact) <= 2.0, a

    def test_printed_digit_near_a_decimal_tie(self, capsys):
        # the exact value is 5.02076433142499973e-206, 0.24 ulp under the
        # 12-digit midpoint.  The value is 0.74 ulp below the exact one and
        # prints its 12 digits; bisection's was 1.26 ulps above and printed
        # 5.02076433143e-206.
        from composite_coder import cli

        oracle = pytest.importorskip("mp_oracle")
        a = 4.5708818961487146e210
        value = gs.bc_expected_distortion(RayleighSystem(sigma2=1.0, power=a, gamma_bar=1.0))
        _, exact = oracle.broadcast_threshold(a, gs._threshold_ratio(a))
        assert oracle.ulps(value, exact) <= 1.0
        assert f"{value:.12g}" == "5.02076433142e-206"
        assert cli.main(["gaussian-compare", "--p-grid", "1,4.5708818961487146e+210"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.split(",")[-1] == "5.02076433142e-206"

    def test_evaluations_per_threshold(self, monkeypatch):
        calls = []
        numerator = gs._numerator
        monkeypatch.setattr(gs, "_numerator", lambda x: calls.append(x) or numerator(x))
        grid = [10.0 ** (k / 100) for k in range(-200, 501)]
        for a in grid + _log_uniform(29, 2000, lo=-1022.0, hi=1023.9) + [sys.float_info.max]:
            calls.clear()
            gs._threshold_ratio(a)
            assert len(calls) <= 8, a


class TestTinySnr:
    @pytest.mark.parametrize("a", [3e-19, 1e-17, 5e-17, 1e-16, 2e-16, 3e-16, 5e-16, 1e-300])
    @pytest.mark.parametrize("sigma2", [1.0, 3.0, 0.3])
    def test_within_an_ulp_of_the_oracle(self, a, sigma2):
        sys_ = RayleighSystem(sigma2=sigma2, power=a, gamma_bar=1.0)
        value = gs.bc_expected_distortion(sys_)
        exact = sigma2 * _mp_oracle(a)[1]
        assert value <= sigma2
        assert abs(value - float(exact)) <= math.ulp(sigma2)

    def test_gap_stays_below_a_over_e(self):
        mp = pytest.importorskip("mpmath")
        # a >= 1e-12, so that the a^2/e term stays above the 40-digit noise
        for k in range(-24, 21):
            a = 10.0 ** (k / 2)
            gap = 1 - _mp_oracle(a)[1]
            assert 0 < gap < a / mp.e
            if a < 1e-6:
                assert gap == pytest.approx((a - a * a) / mp.e, rel=1e-10)


class TestRange:
    @pytest.mark.parametrize("gbar", [0.25, 1.0, 4.0])
    def test_all_schemes_finite_and_ordered(self, gbar):
        for k in range(-16, 17):
            sys = RayleighSystem(sigma2=1.0, power=10.0 ** (k / 2.0), gamma_bar=gbar)
            uncoded = gs.uncoded_expected_distortion(sys)
            broadcast = gs.bc_expected_distortion(sys)
            _, outage = gs.optimal_outage_for_distortion(sys)
            assert all(math.isfinite(v) for v in (uncoded, broadcast, outage))
            # outage - broadcast = 0.0613 a^3 + O(a^4) (40-digit evaluation),
            # below the float spacing for a < 1e-5: allow a few ulps there
            assert 0.0 < uncoded <= broadcast <= outage * (1.0 + 1e-15)
            assert outage <= sys.sigma2

    def test_uncoded_at_tiny_snr(self):
        # exp(1/a) alone overflows below a = 1.4e-3
        sys = RayleighSystem(sigma2=1.0, power=1e-3, gamma_bar=1.0)
        # 1/(1 + a g) averaged: sum of (-1)^k k! a^k, next term 720 a^6
        assert gs.uncoded_expected_distortion(sys) == pytest.approx(
            1.0 - 1e-3 + 2e-6 - 6e-9 + 24e-12 - 120e-15, rel=1e-14
        )

    def test_power_beyond_float_range(self):
        sys = RayleighSystem(sigma2=1.0, power=1e308, gamma_bar=10.0)
        with pytest.raises(ValueError, match="overflows"):
            gs.bc_power_threshold(sys)
