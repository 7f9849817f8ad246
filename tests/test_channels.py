"""Tests for channel models and capacity metrics."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from composite_coder import channels, specfn
from composite_coder.channels import CompositeBsc, RatePair, RayleighSystem


def _h(p):
    # local entropy oracle so rate checks do not reuse the library path
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


UNIT = RayleighSystem(sigma2=1.0, power=1.0, gamma_bar=1.0)


class TestTypes:
    def test_bsc_validation(self):
        with pytest.raises(ValueError):
            CompositeBsc(alpha1=0.45, alpha2=0.25, p=0.5, b=2.0)
        with pytest.raises(ValueError):
            CompositeBsc(alpha1=0.25, alpha2=0.45, p=1.5, b=2.0)
        with pytest.raises(ValueError):
            CompositeBsc(alpha1=0.25, alpha2=0.45, p=0.5, b=0.5)

    def test_bsc_lossless_regime_warns(self):
        with pytest.warns(UserWarning) as record:
            CompositeBsc(alpha1=0.05, alpha2=0.45, p=0.5, b=2.0)
        # the warning names the line that built the channel
        assert record[0].filename == __file__

    def test_rayleigh_validation(self):
        with pytest.raises(ValueError):
            RayleighSystem(sigma2=0.0, power=1.0, gamma_bar=1.0)

    @pytest.mark.parametrize(
        "power, gamma_bar",
        [(1e308, 10.0), (10.0, 1e308), (math.inf, 1.0), (1e-200, 1e-200), (5e-324, 0.5)],
    )
    def test_rayleigh_rejects_a_product_outside_the_floats(self, power, gamma_bar):
        # an overflowing product once gave NaN outage probabilities, and one that
        # underflows to 0 a ZeroDivisionError
        with pytest.raises(ValueError, match=r"power\*gamma_bar"):
            RayleighSystem(sigma2=1.0, power=power, gamma_bar=gamma_bar)

    @pytest.mark.parametrize("field", ["sigma2", "power", "gamma_bar"])
    def test_rayleigh_rejects_nan(self, field):
        values = {"sigma2": 1.0, "power": 1.0, "gamma_bar": 1.0, field: math.nan}
        with pytest.raises(ValueError):
            RayleighSystem(**values)

    def test_rate_pair_bounds(self):
        with pytest.raises(ValueError):
            RatePair(r1=-0.1, r2=0.2)
        with pytest.raises(ValueError):
            RatePair(r1=0.1, r2=1.2)

    @pytest.mark.parametrize(
        "kind, values",
        [(CompositeBsc, {"alpha1": 0.25, "alpha2": 0.45, "p": 0.5, "b": 2.0}),
         (RatePair, {"r1": 0.25, "r2": 0.5})],
        ids=["bsc", "rates"],
    )
    def test_nan_rejected_in_every_field(self, kind, values):
        kind(**values)
        for field in values:
            with pytest.raises(ValueError):
                kind(**{**values, field: math.nan})

    @pytest.mark.parametrize("kind, values", [
        (CompositeBsc, {"alpha1": 0.25, "alpha2": 0.45, "p": 0.5, "b": 2.0}),
        (RayleighSystem, {"sigma2": 1.0, "power": 2.0, "gamma_bar": 3.0}),
        (RatePair, {"r1": 0.25, "r2": 0.5}),
    ], ids=["bsc", "rayleigh", "rates"])
    def test_value_equality_hash_and_repr(self, kind, values):
        # built by position or by keyword, the same value
        a, b = kind(*values.values()), kind(**values)
        assert a == b and hash(a) == hash(b) and a is not b
        last = list(values)[-1]
        assert kind(**{**values, last: values[last] / 2}) != a
        assert a != tuple(values.values())
        spelled = ", ".join(f"{name}={value!r}" for name, value in values.items())
        assert repr(a) == f"{kind.__name__}({spelled})"


class TestRayleighOutage:
    def test_zero_outage_threshold(self):
        assert channels.rayleigh_outage_threshold(UNIT, 0.0) == 0.0

    def test_threshold_at_mean(self):
        assert channels.rayleigh_outage_threshold(UNIT, 1.0 - 1.0 / math.e) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_threshold_small_outage(self):
        assert channels.rayleigh_outage_threshold(UNIT, 0.1) == pytest.approx(
            -math.log(0.9), abs=1e-15
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            channels.rayleigh_outage_threshold(UNIT, 1.0)

    def test_capacity_zero_at_zero_outage(self):
        assert channels.capacity_vs_outage_rayleigh(UNIT, 0.0) == 0.0

    def test_capacity_at_unit_threshold(self):
        assert channels.capacity_vs_outage_rayleigh(UNIT, 1.0 - 1.0 / math.e) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_capacity_nondecreasing(self):
        values = [channels.capacity_vs_outage_rayleigh(UNIT, q / 50.0) for q in range(50)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_outage_capacity_vanishes_at_ends(self):
        assert channels.outage_capacity_rayleigh(UNIT, 0.0) == 0.0
        assert channels.outage_capacity_rayleigh(UNIT, 1.0 - 1e-13) == pytest.approx(
            0.0, abs=1e-10
        )


class TestOptimalOutageForCapacity:
    def test_unit_snr_closed_form(self):
        # independent oracle for W(1): iterate w = -ln(w), then plug into the formula
        w = 0.5
        for _ in range(300):
            w = 0.5 * (w + math.log(1.0 / w))
        expected = 1.0 - math.exp(-(math.exp(w) - 1.0))
        assert channels.optimal_outage_for_capacity(UNIT) == pytest.approx(expected, abs=1e-9)

    def test_within_3_ulps_of_mpmath(self):
        # exp(W(a)) - 1 once cancelled at small a (0.0 at a = 1e-20, 5.2e-5
        # relative error at 1e-12), and exp scales W's rounding by W at large
        # a (495 ulps near 1e300).  Now the worst of 47,000 a, log-uniform in
        # [1e-300, 1e300] and in [1e-3, 1e5], was 2.53 ulps, at a = 4.11
        mpmath = pytest.importorskip("mpmath")
        oracle = pytest.importorskip("mp_oracle")
        rng = random.Random(52)
        scales = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2000)]
        scales += [10.0 ** rng.uniform(-3.0, 5.0) for _ in range(1000)]
        scales += [1e-20, 1e-12, 1e-8, 1e-4, 10.0, math.nextafter(10.0, 11.0), 5e-324]
        for a in scales:
            with mpmath.workdps(oracle.DPS):
                w = mpmath.lambertw(mpmath.mpf(a)).real
                exact = -mpmath.expm1(-mpmath.expm1(w) / a)
            value = channels.optimal_outage_for_capacity(RayleighSystem(1.0, a, 1.0))
            assert oracle.ulps(value, exact) <= 3.0, a

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 5.0])
    def test_matches_numeric_maximizer(self, scale):
        sys = RayleighSystem(sigma2=1.0, power=scale, gamma_bar=1.0)
        closed = channels.optimal_outage_for_capacity(sys)
        numeric, _ = specfn.golden_section(
            lambda q: -channels.outage_capacity_rayleigh(sys, q), 1e-9, 1.0 - 1e-9, tol=1e-9
        )
        assert closed == pytest.approx(numeric, abs=1e-6)


class TestBscCapacity:
    CH = CompositeBsc(alpha1=0.25, alpha2=0.45, p=0.4, b=2.0)

    def test_serving_both_states(self):
        assert channels.capacity_vs_outage_bsc(self.CH, 0.1) == pytest.approx(
            1.0 - _h(0.45), abs=1e-12
        )

    def test_writing_off_bad_state(self):
        assert channels.capacity_vs_outage_bsc(self.CH, 0.4) == pytest.approx(
            1.0 - _h(0.25), abs=1e-12
        )

    def test_near_degenerate_states_agree(self):
        ch = CompositeBsc(alpha1=0.3, alpha2=0.3 + 1e-12, p=0.4, b=2.0)
        below = channels.capacity_vs_outage_bsc(ch, 0.1)
        above = channels.capacity_vs_outage_bsc(ch, 0.6)
        assert below == pytest.approx(above, abs=1e-9)

    def test_single_jump_at_p(self):
        lo = channels.capacity_vs_outage_bsc(self.CH, self.CH.p - 1e-9)
        hi = channels.capacity_vs_outage_bsc(self.CH, self.CH.p)
        assert lo < hi


class TestBroadcastRegion:
    CH = CompositeBsc(alpha1=0.25, alpha2=0.45, p=0.4, b=2.0)

    def test_base_only_endpoint(self):
        rates = channels.bsc_bc_rate_region(self.CH, 0.0)
        assert rates.r1 == 0.0
        assert rates.r2 == pytest.approx(1.0 - _h(0.45), abs=1e-12)

    def test_refinement_only_endpoint(self):
        rates = channels.bsc_bc_rate_region(self.CH, 0.5)
        assert rates.r1 == pytest.approx(1.0 - _h(0.25), abs=1e-12)
        assert rates.r2 == pytest.approx(0.0, abs=1e-12)

    def test_interior_point(self):
        rates = channels.bsc_bc_rate_region(self.CH, 0.1)
        conv1 = 0.25 * 0.9 + 0.1 * 0.75
        conv2 = 0.45 * 0.9 + 0.1 * 0.55
        assert rates.r1 == pytest.approx(_h(conv1) - _h(0.25), abs=1e-12)
        assert rates.r2 == pytest.approx(1.0 - _h(conv2), abs=1e-12)

    def test_monotone_and_continuous(self):
        betas = [0.5 * i / 200 for i in range(201)]
        points = [channels.bsc_bc_rate_region(self.CH, b) for b in betas]
        for a, b in zip(points, points[1:]):
            assert a.r1 <= b.r1 + 1e-12
            assert a.r2 >= b.r2 - 1e-12
            assert abs(a.r1 - b.r1) < 0.02 and abs(a.r2 - b.r2) < 0.02

    def test_domain(self):
        with pytest.raises(ValueError):
            channels.bsc_bc_rate_region(self.CH, 0.6)


class TestExpectedCapacity:
    def test_good_state_only(self):
        ch = CompositeBsc(alpha1=0.25, alpha2=0.45, p=0.0, b=2.0)
        value, beta = channels.bsc_expected_capacity(ch)
        assert value == pytest.approx(1.0 - _h(0.25), abs=1e-9)
        assert beta == pytest.approx(0.5, abs=1e-6)

    def test_bad_state_only(self):
        ch = CompositeBsc(alpha1=0.25, alpha2=0.45, p=1.0, b=2.0)
        value, beta = channels.bsc_expected_capacity(ch)
        assert value == pytest.approx(1.0 - _h(0.45), abs=1e-9)
        assert beta == pytest.approx(0.0, abs=1e-6)

    def test_against_brute_force(self):
        ch = CompositeBsc(alpha1=0.25, alpha2=0.45, p=0.5, b=2.0)
        value, _ = channels.bsc_expected_capacity(ch)

        def average_rate(beta):
            r1 = _h(0.25 * (1 - beta) + beta * 0.75) - _h(0.25)
            r2 = 1.0 - _h(0.45 * (1 - beta) + beta * 0.55)
            return 0.5 * (r1 + r2) + 0.5 * r2

        brute = max(average_rate(i * 0.5 / 50000) for i in range(50001))
        assert value == pytest.approx(brute, abs=1e-6)

    @given(
        st.floats(-6.0, math.log10(0.49), exclude_max=True),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    @example(-6.0, 1e-9, 1.0)
    @example(-6.0, 0.5, 0.0)
    @settings(max_examples=200, deadline=None)
    def test_golden_section_finds_the_maximum(self, log_alpha1, frac, p):
        # the objective is unimodal in beta, so no grid point may beat the search
        alpha1 = 10.0**log_alpha1
        alpha2 = alpha1 + frac * (0.5 - alpha1)
        assume(alpha1 < 0.49 and alpha1 < alpha2 < 0.5)
        ch = CompositeBsc(alpha1=alpha1, alpha2=alpha2, p=p, b=1.0)

        def objective(beta):
            rates = channels.bsc_bc_rate_region(ch, beta)
            return (1.0 - p) * (rates.r1 + rates.r2) + p * rates.r2

        value, beta = channels.bsc_expected_capacity(ch)
        assert value >= max(objective(0.5 * i / 256) for i in range(257)) - 1e-12
        assert objective(beta) == value

    def test_sandwich_bounds(self):
        ch = CompositeBsc(alpha1=0.25, alpha2=0.45, p=0.3, b=2.0)
        value, _ = channels.bsc_expected_capacity(ch)
        endpoint_best = max(1.0 - _h(0.45), (1.0 - ch.p) * (1.0 - _h(0.25)))
        upper = 1.0 - (1.0 - ch.p) * _h(0.25) - ch.p * _h(0.45)
        assert endpoint_best - 1e-12 <= value <= upper + 1e-12
