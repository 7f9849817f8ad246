"""Unit and property tests for the scalar numerics."""

import bisect
import math
import random
import sys
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composite_coder import specfn

# h(1/4) = 2 - (3/4) log2(3), an independent closed form
H_QUARTER = 2.0 - 0.75 * math.log2(3.0)


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert specfn.binary_entropy(0.5) == 1.0

    def test_degenerate_endpoints(self):
        assert specfn.binary_entropy(0.0) == 0.0
        assert specfn.binary_entropy(1.0) == 0.0

    def test_quarter_closed_form(self):
        assert specfn.binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            specfn.binary_entropy(bad)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, p):
        assert specfn.binary_entropy(p) == pytest.approx(
            specfn.binary_entropy(1.0 - p), abs=1e-12
        )

    def test_relative_error_against_mpmath(self):
        # log1p keeps the (1 - p) term, about p/ln 2, that log2(1 - p) drops
        # once 1 - p rounds to 1; subnormal values err by up to one spacing
        oracle = pytest.importorskip("mp_oracle")
        rng = random.Random(22)
        ps = [rng.random() * 0.5 for _ in range(1000)]
        ps += [10.0 ** rng.uniform(-323.3, -1.0) for _ in range(1000)]
        ps += [0.5 - 10.0 ** rng.uniform(-16.0, -1.0) for _ in range(300)]
        ps += [5e-324, 2.0**-1022, 1e-20, 2.0**-40, 0.5 - 2.0**-54]
        for p in ps:
            exact = oracle.entropy(p)
            assert abs(specfn.binary_entropy(p) - exact) <= 2 * 2.0**-52 * exact + 2.0**-1074, p


def inverse_binary_entropy(r):
    """The unique p in [0, 1/2] with binary_entropy(p) = r, to a few ulps.

    The scalar reference for the array inverse: one element of
    ``specfn._inverse_entropy``, which the package calls only on arrays.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"entropy value must lie in [0, 1], got {r}")
    if r == 0.0:
        return 0.0
    import numpy as np

    return specfn._inverse_entropy(np.array([r]), np.array([1.0 - r])).item()


class TestInverseBinaryEntropy:
    def test_endpoints(self):
        assert inverse_binary_entropy(1.0) == 0.5
        assert inverse_binary_entropy(0.0) == 0.0

    def test_quarter_roundtrip(self):
        assert inverse_binary_entropy(H_QUARTER) == pytest.approx(0.25, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            inverse_binary_entropy(1.5)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_roundtrip(self, r):
        assert specfn.binary_entropy(inverse_binary_entropy(r)) == pytest.approx(
            r, abs=1e-9
        )


class TestDistortionRate:
    def test_zero_rate_guesses_mean(self):
        assert specfn.bss_distortion_rate(0.0) == 0.5

    def test_one_bit_lossless(self):
        assert specfn.bss_distortion_rate(1.0) == 0.0
        assert specfn.bss_distortion_rate(1.7) == 0.0

    def test_inverse_consistency(self):
        # independent check: the returned D must satisfy 1 - h(D) = r
        for r in (0.1887, 0.3, 0.6, 0.95):
            d = specfn.bss_distortion_rate(r)
            assert 1.0 - specfn.binary_entropy(d) == pytest.approx(r, abs=1e-9)
        assert specfn.bss_distortion_rate(0.1887) == pytest.approx(0.25, abs=5e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfn.bss_distortion_rate(-0.01)

    def test_printed_values(self):
        # the bisection to an absolute 1e-12 printed 0.110027864439,
        # 0.041692690274 and 6.51531431686e-05
        got = [f"{specfn.bss_distortion_rate(r):.12g}" for r in (0.5, 0.75, 0.999)]
        assert got == ["0.110027864438", "0.0416926902737", "6.51531429033e-05"]


def _assert_d_within_ulps(rates, bound=8.0):
    oracle = pytest.importorskip("mp_oracle")
    for rate in rates:
        d = specfn.bss_distortion_rate(rate)
        assert oracle.ulps(d, oracle.distortion_rate(rate, d)) <= bound, rate


_RATE_SAMPLES = {
    "uniform": lambda rng: rng.random(),
    "tiny": lambda rng: 10.0 ** rng.uniform(-300.0, -1.0),
    "near-one": lambda rng: 1.0 - 10.0 ** rng.uniform(-16.0, -14.0),
    "near-half": lambda rng: 0.5 + rng.uniform(-1e-3, 1e-3),
    "below-half": lambda rng: rng.uniform(0.4, 0.5),
    "near-form-switch": lambda rng: specfn._U_FORM_BELOW + rng.uniform(-1e-3, 1e-3),
}


class TestDistortionRateAccuracy:
    """D(rate) against a 50-digit mpmath inverse over the whole domain."""

    @pytest.mark.parametrize("kind", sorted(_RATE_SAMPLES))
    def test_within_8_ulps(self, kind):
        rng = random.Random(kind)
        rates = [_RATE_SAMPLES[kind](rng) for _ in range(200)]
        # the last two are 10 ulps off in the u = 1 - 2D form, which is why it
        # stops at rate 0.3
        edges = [5e-324, 1e-300, 2.0**-54, 0.5 - 2.0**-54, 0.5, 1.0 - 2.0**-53,
                 0.49058759702281907, 0.480538206288094]
        _assert_d_within_ulps([r for r in rates + edges if 0.0 < r < 1.0])

    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_within_8_ulps_sampled(self, rate):
        _assert_d_within_ulps([rate])

    def test_printed_digits_match(self):
        oracle = pytest.importorskip("mp_oracle")
        rng = random.Random(600)
        for rate in (rng.random() for _ in range(600)):
            d = specfn.bss_distortion_rate(rate)
            assert oracle.g12(d) == oracle.g12(oracle.distortion_rate(rate, d)), rate

    def test_inverse_entropy_within_8_ulps(self):
        # small entropies down to those whose inverse is the least normal float
        oracle = pytest.importorskip("mp_oracle")
        rng = random.Random(7)
        targets = [10.0 ** rng.uniform(-305.0, 0.0) for _ in range(300)] + [1e-300, 0.5, 0.7]
        for r in targets:
            p = inverse_binary_entropy(r)
            assert oracle.ulps(p, oracle.inverse_entropy(r, p)) <= 8.0, r


class TestBinaryConvolve:
    def test_identity_element(self):
        assert specfn.binary_convolve(0.3, 0.0) == 0.3

    def test_absorbing_element(self):
        assert specfn.binary_convolve(0.3, 0.5) == 0.5

    def test_worked_value(self):
        assert specfn.binary_convolve(0.25, 0.45) == pytest.approx(
            0.25 * 0.55 + 0.45 * 0.75, abs=1e-15
        )

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_commutes_and_dominates(self, a, b):
        ab = specfn.binary_convolve(a, b)
        assert ab == pytest.approx(specfn.binary_convolve(b, a), abs=1e-15)
        assert ab >= max(a, b) - 1e-15

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_monotone_on_lower_half(self, a, b1, b2):
        lo, hi = min(b1, b2), max(b1, b2)
        assert specfn.binary_convolve(a, lo) <= specfn.binary_convolve(a, hi) + 1e-15


class TestExpIntegral:
    def test_matches_quadrature(self):
        # oracle: shifted defining integral, exp(-x) * int_0^inf exp(-s)/(x+s) ds
        for x in (0.5, 1.0, 2.0, 7.5):
            oracle = math.exp(-x) * specfn.integrate(
                lambda s: math.exp(-s) / (x + s), 0.0, math.inf, tol=1e-13
            )
            assert specfn.exp_integral(x) == pytest.approx(oracle, rel=1e-10)

    def test_matches_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for x in (0.05, 0.3, 1.0, 4.0, 12.0, 20.0):
            assert specfn.exp_integral(x) == pytest.approx(
                float(scipy_special.exp1(x)), rel=1e-12
            )

    def test_strictly_decreasing_with_upper_bound(self):
        xs = [0.05 * (1.35**k) for k in range(20)]
        values = [specfn.exp_integral(x) for x in xs]
        for (x, v), v_next in zip(zip(xs, values), values[1:]):
            assert v > v_next
            assert v < math.exp(-x) / x

    def test_within_a_few_ulps_of_mpmath(self):
        # the series cancels near 1: 17.5 ulps at x = 0.979 the worst of 100,000
        mpmath = pytest.importorskip("mpmath")
        oracle = pytest.importorskip("mp_oracle")
        rng = random.Random(49)
        xs = [2.0 ** rng.uniform(-1074.0, 10.0) for _ in range(1000)]
        xs += [rng.random() or 1.0 for _ in range(1000)]
        xs += [1.0 + 2.0 ** rng.uniform(-52.0, 7.0) for _ in range(1000)]
        xs += [0.9789412027345067, 1.0, math.nextafter(1.0, 2.0), 5e-324]
        for x in xs:
            with mpmath.workdps(oracle.DPS):
                exact = mpmath.e1(x)
            assert oracle.ulps(specfn.exp_integral(x), exact) <= (4.0 if x > 1.0 else 18.0), x

    def test_routes_agree_where_both_are_accurate(self):
        # the series and the fraction are independent; on [0.2, 2] they agree
        # to 1.6e-14 relative (at x = 1.8875), which selfcheck's 1e-12 bounds
        for k in range(1, 2001):
            x = 0.2 + k * 1.8 / 2000
            fraction = specfn._scaled_e1_fraction(x) * math.exp(-x)
            assert specfn._e1_series(x) == pytest.approx(fraction, rel=1e-13, abs=0.0), x

    def test_public_functions_do_not_call_each_other(self, monkeypatch):
        # each takes one route, so breaking one leaves the other's values
        xs = [0.25, 1.0, 1.5, 30.0]
        plain = [specfn.exp_integral(x) for x in xs]
        scaled = [specfn.scaled_exp_integral(x) for x in xs]

        def broken(x):
            raise AssertionError("called")

        monkeypatch.setattr(specfn, "exp_integral", broken)
        assert [specfn.scaled_exp_integral(x) for x in xs] == scaled
        monkeypatch.undo()
        monkeypatch.setattr(specfn, "scaled_exp_integral", broken)
        assert [specfn.exp_integral(x) for x in xs] == plain

    def test_domain(self):
        with pytest.raises(ValueError):
            specfn.exp_integral(0.0)
        with pytest.raises(ValueError):
            specfn.exp_integral(-1.0)
        with pytest.raises(ValueError):
            specfn.exp_integral(math.nan)


def _series_e1_reference(x):
    """The E1 series loop as it was before its sign and stop test were simplified."""
    total = 0.0
    term = 1.0
    for k in range(1, 80):
        term *= x / k
        contrib = term / k
        total += contrib if k % 2 == 1 else -contrib
        if contrib < 1e-18 * max(1.0, abs(total)):
            break
    return -specfn.EULER_GAMMA - math.log(x) + total


class TestExpIntegralSeries:
    def test_same_bits_as_reference_loop(self):
        rng = random.Random(14)
        xs = [k / 4096 for k in range(1, 4097)]
        xs += [10.0 ** (-k / 16) for k in range(0, 16 * 308)]
        xs += [rng.random() or 1.0 for _ in range(20000)]
        xs += [5e-324, sys.float_info.min, math.nextafter(1.0, 0.0), 1.0]
        assert [specfn.exp_integral(x) for x in xs] == [_series_e1_reference(x) for x in xs]


class TestScaledExpIntegral:
    @pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 1.5, 4.0, 12.0, 30.0])
    def test_matches_exp_integral(self, x):
        assert specfn.scaled_exp_integral(x) == pytest.approx(
            math.exp(x) * specfn.exp_integral(x), rel=1e-14
        )

    def test_asymptotic_series_at_large_argument(self):
        # e^x E1(x) = 1/x - 1/x^2 + 2/x^3 - ..., next term 6/x^4
        x = 1e6
        assert specfn.scaled_exp_integral(x) == pytest.approx(
            1.0 / x - 1.0 / x**2 + 2.0 / x**3, rel=1e-15
        )

    def test_asymptotic_series_where_the_fraction_stalls(self):
        # far out the fraction's value is A&S 5.1.51's asymptotic series to rounding
        xs = [108997874454.53777, 1.905460717963252e16, 8.317637711027014e299]
        xs += [10.0 ** (k / 10) for k in range(110, 3081)]
        for x in xs:
            assert specfn.scaled_exp_integral(x) == pytest.approx(
                (1.0 - (1.0 - 2.0 / x) / x) / x, rel=1e-15
            )
        assert specfn.scaled_exp_integral(sys.float_info.max) == 1.0 / sys.float_info.max

    def test_within_a_few_ulps_of_the_oracle(self):
        # above 1 the backward fraction is within 3 ulps (2.45 the worst of
        # 150,000 points).  At and below 1 the series of exp_integral loses
        # bits to the cancellation of -gamma - ln x against its sum: up to
        # 13.6 ulps near x = 0.98
        oracle = pytest.importorskip("mp_oracle")
        rng = random.Random(46)
        xs = [2.0 ** rng.uniform(-1074.0, math.log2(1e300)) for _ in range(2000)]
        xs += [1.0 + 2.0 ** rng.uniform(-52.0, 7.0) for _ in range(1000)]
        xs += [rng.random() or 1.0 for _ in range(1000)]
        xs += [math.nextafter(1.0, 2.0), 1.3, 5.3e14, 9.6e14, sys.float_info.max]
        xs += [1.0, 0.9834191816617245, 5e-324]
        for x in xs:
            ulps = oracle.ulps(specfn.scaled_exp_integral(x), oracle.scaled_e1(x))
            assert ulps <= (3.0 if x > 1.0 else 14.0), x

    def test_depth_rule_keeps_truncation_under_half_an_ulp(self):
        # the fraction cut at depth n = floor(116/x) + 5 is the (n+1)-point
        # Gauss-Laguerre rule, with relative error at most (1 + 1/x)/L(-x)^2
        # for L the Laguerre polynomial of degree n + 1.  n is constant on
        # (116/(j+1), 116/j], where L(-x) grows with x, so the bound is
        # largest at the open left end of each step, where it is checked.
        mpmath = pytest.importorskip("mpmath")

        def backward(x, n):
            t = 0.0
            for k in range(n, 0, -1):
                t = k * k / (x + (2 * k + 1) - t)
            return 1.0 / (x + 1.0 - t)

        rng = random.Random(47)
        for x in [1.0 + 2.0 ** rng.uniform(-52.0, 10.0) for _ in range(300)] + [1e300]:
            assert specfn.scaled_exp_integral(x) == backward(x, int(116.0 / x) + 5), x
        with mpmath.workdps(30):
            for j in range(116):
                x = max(mpmath.mpf(116) / (j + 1), 1)
                bound = (1 + 1 / x) / mpmath.laguerre(j + 6, 0, -x) ** 2
                assert bound <= mpmath.mpf(2) ** -54, j

    def test_finite_where_exp_integral_underflows(self):
        assert specfn.exp_integral(1e3) == 0.0
        assert specfn.scaled_exp_integral(1e3) == pytest.approx(1e-3 * (1 - 1e-3), rel=1e-5)

    def test_domain(self):
        for x in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                specfn.scaled_exp_integral(x)


class TestLambertW:
    def test_fixed_points(self):
        assert specfn.lambert_w(0.0) == 0.0
        assert specfn.lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_unit_argument(self):
        # oracle: damped fixed-point iteration w <- (w + z exp(-w)) / 2 variants
        w = 0.5
        for _ in range(200):
            w = 0.5 * (w + math.log(1.0 / w))  # solves w = -ln w, i.e. w e^w = 1
        assert specfn.lambert_w(1.0) == pytest.approx(w, abs=1e-9)

    def test_roundtrip_log_grid(self):
        for k in range(-24, 25):
            z = 10.0 ** (k / 4.0)
            w = specfn.lambert_w(z)
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, z)

    def test_near_the_float_maximum(self):
        # Halley's iteration through exp(w) once returned 701.48169 at
        # z = 3.16e307, 1.3e-5 relative below the root
        mp = pytest.importorskip("mpmath")
        rng = random.Random(31)
        zs = [10.0 ** rng.uniform(300.0, 308.25) for _ in range(200)]
        zs += [1e300, math.nextafter(1e300, math.inf), 2.76e307, 3.16e307, sys.float_info.max]
        for z in zs:
            exact = mp.lambertw(mp.mpf(z))
            assert abs(specfn.lambert_w(z) / exact - 1) <= 1e-15, z

    def test_domain(self):
        # NaN once ran all 200 Halley steps and returned NaN, as inf did
        for z in (-0.5, -math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                specfn.lambert_w(z)


class TestMinimizeScalar:
    """The original scalar-minimization cases, on the package's one minimizer."""

    def test_parabola(self):
        x, fx = specfn.golden_section(lambda x: (x - 0.3) ** 2, 0.0, 1.0, tol=1e-10)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_constant(self):
        x, fx = specfn.golden_section(lambda _: 2.5, 0.0, 1.0, tol=1e-8)
        assert fx == 2.5
        assert 0.0 <= x <= 1.0

    def test_outage_tradeoff_matches_closed_form(self):
        # closed-form minimizer of q + (1-q)/(1 - ln(1-q)) at unit SNR scale
        closed = 1.0 - math.exp(-2.0 / (1.0 + math.sqrt(5.0)))

        def objective(q):
            return q + (1.0 - q) / (1.0 - math.log1p(-q))

        x, _ = specfn.golden_section(objective, 1e-9, 1.0 - 1e-9, tol=1e-10)
        assert x == pytest.approx(closed, abs=1e-6)


class TestGoldenSection:
    def test_parabola(self):
        x, fx = specfn.golden_section(lambda x: (x - 0.3) ** 2, 0.0, 1.0, tol=1e-10)
        assert x == pytest.approx(0.3, abs=1e-10)
        assert fx == (x - 0.3) ** 2

    def test_constant(self):
        x, fx = specfn.golden_section(lambda _: 2.5, 0.0, 1.0, tol=1e-8)
        assert fx == 2.5
        assert 0.0 < x < 1.0

    def test_bracket_within_tolerance(self):
        x, fx = specfn.golden_section(lambda x: -x, 0.25, 0.25 + 1e-12, tol=1e-9)
        assert 0.25 < x < 0.25 + 1e-12 and fx == -x

    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.5, 0.5)])
    def test_empty_bracket(self, lo, hi):
        with pytest.raises(ValueError):
            specfn.golden_section(lambda x: x, lo, hi)

    def test_outage_tradeoff_matches_closed_form(self):
        # the unit-SNR outage tradeoff q + (1-q)/(1 - ln(1-q)), unimodal on the interval
        closed = 1.0 - math.exp(-2.0 / (1.0 + math.sqrt(5.0)))
        x, _ = specfn.golden_section(
            lambda q: q + (1.0 - q) / (1.0 - math.log1p(-q)), 1e-9, 1.0 - 1e-9, tol=1e-9
        )
        assert x == pytest.approx(closed, abs=1e-6)


def _selfcheck_integrals():
    """The twelve integrals of selfcheck, each with its closed form in mpmath.

    int_0^inf exp(-s)/(x + s) ds = e^x E1(x), and
    int_0^inf exp(-g)/(1 + a g) dg = e^(1/a) E1(1/a) / a.
    """
    for x in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        yield (lambda s, x=x: math.exp(-s) / (x + s)), (lambda mp, x=x: mp.exp(x) * mp.e1(x))
    for a in (0.5, 1.0, 2.0, 5.0):
        yield (
            (lambda g, a=a: math.exp(-g) / (1.0 + a * g)),
            (lambda mp, a=a: mp.exp(1 / mp.mpf(a)) * mp.e1(1 / mp.mpf(a)) / a),
        )


class TestIntegrate:
    def test_unit_box(self):
        assert specfn.integrate(lambda _: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_tail(self):
        assert specfn.integrate(lambda x: math.exp(-x), 0.0, math.inf) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_consistent_with_exp_integral(self):
        value = specfn.integrate(lambda t: math.exp(-t) / t, 1.0, math.inf, tol=1e-12)
        assert value == pytest.approx(specfn.exp_integral(1.0), abs=1e-9)

    def test_orientation(self):
        assert specfn.integrate(lambda x: x, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("tol", [1e-13, 0.0])
    def test_selfcheck_integrals_match_mpmath(self, tol):
        # tol 0 stops where successive sums agree to rounding
        mpmath = pytest.importorskip("mpmath")
        for f, exact in _selfcheck_integrals():
            value = specfn.integrate(f, 0.0, math.inf, tol=tol)
            with mpmath.workdps(30):
                assert value == pytest.approx(float(exact(mpmath)), rel=1e-15, abs=0.0)

    def test_selfcheck_integrals_evaluation_count(self):
        # a work count, which does not drift with the machine's speed
        for f, _ in _selfcheck_integrals():
            evals = []

            def counted(x, f=f):
                evals.append(x)
                return f(x)

            specfn.integrate(counted, 0.0, math.inf, tol=1e-13)
            assert len(evals) <= 400

    def test_endpoint_singularity(self):
        value = specfn.integrate(lambda x: x**-0.5, 0.0, 1.0)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_narrow_range_far_from_zero(self):
        # the nodes nearest each endpoint round onto it
        value = specfn.integrate(lambda x: x, 1e8, 1e8 + 1.0)
        assert value == pytest.approx(1e8 + 0.5, rel=1e-15)

    @pytest.mark.parametrize(
        "f, b",
        [
            pytest.param(lambda x: 1.0 / x, 1.0, id="divergent"),
            pytest.param(
                lambda x: 1.0 / math.sqrt(abs(x - 0.3) + 1e-300), 1.0, id="interior-singularity"
            ),
            pytest.param(math.sin, math.inf, id="no-decay"),
        ],
    )
    def test_level_cap_raises(self, f, b):
        with pytest.raises(specfn.ConvergenceError):
            specfn.integrate(f, 0.0, b, tol=1e-14)

    @pytest.mark.parametrize("a, b", [(0.0, -math.inf), (-math.inf, 0.0)])
    def test_lower_unbounded_rejected(self, a, b):
        with pytest.raises(ValueError):
            specfn.integrate(math.exp, a, b)


def _is_convex_chain(hull):
    for (x0, y0), (x1, y1), (x2, y2) in zip(hull, hull[1:], hull[2:]):
        if (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) <= 0.0:
            return False
    return True


class TestParetoLowerHull:
    def test_single_point(self):
        assert specfn.pareto_lower_hull([(0.2, 0.3)]) == [(0.2, 0.3)]

    def test_dominated_point_removed(self):
        hull = specfn.pareto_lower_hull([(0.1, 0.4), (0.4, 0.1), (0.4, 0.4)])
        assert hull == [(0.1, 0.4), (0.4, 0.1)]

    def test_interior_point_removed_by_chord(self):
        hull = specfn.pareto_lower_hull([(0.0, 1.0), (0.5, 0.6), (1.0, 0.0)])
        assert hull == [(0.0, 1.0), (1.0, 0.0)]

    def test_concave_point_kept(self):
        hull = specfn.pareto_lower_hull([(0.0, 1.0), (0.5, 0.3), (1.0, 0.0)])
        assert hull == [(0.0, 1.0), (0.5, 0.3), (1.0, 0.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            specfn.pareto_lower_hull([])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200)
    def test_hull_convex_sorted_and_dominating(self, points):
        hull = specfn.pareto_lower_hull(points)
        xs = [x for x, _ in hull]
        assert xs == sorted(xs)
        assert _is_convex_chain(hull)
        for p in points:
            assert hull_dominates(hull, p, slack=1e-12)


class TestHullDominates:
    def test_left_of_hull_not_dominated(self):
        hull = [(0.2, 0.5), (0.5, 0.2)]
        assert not hull_dominates(hull, (0.1, 0.9))

    def test_segment_interpolation(self):
        hull = [(0.0, 1.0), (1.0, 0.0)]
        assert hull_dominates(hull, (0.5, 0.5))
        assert hull_dominates(hull, (0.5, 0.5 - 1e-13), slack=1e-12)
        assert not hull_dominates(hull, (0.5, 0.4))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=40,
        ),
        st.lists(
            st.tuples(
                st.floats(min_value=-0.5, max_value=1.5),
                st.floats(min_value=-0.5, max_value=1.5),
            ),
            min_size=1,
            max_size=10,
        ),
        st.sampled_from([0.0, 1e-9, -1e-9, 1e-12]),
    )
    @settings(max_examples=300)
    def test_bisection_matches_linear_scan(self, points, probes, slack):
        hull = specfn.pareto_lower_hull(points)
        # the hull's own vertices hit segment ends exactly
        for p in probes + hull + points:
            assert hull_dominates(hull, p, slack) == _hull_dominates_linear(hull, p, slack)


def hull_dominates(hull, point, slack=0.0):
    """True when some point on the hull polyline weakly dominates ``point``.

    The reference for ``bss_system.hull_dominates_array``, with an absolute
    slack.  ``hull`` must be sorted by x, as ``pareto_lower_hull`` returns it;
    the segment under the point is found by bisection.  ``slack`` loosens the
    comparison componentwise; a negative slack demands strict domination by
    at least that margin.
    """
    px, py = point
    reach = px + slack
    if reach < hull[0][0]:
        return False
    k = bisect.bisect_right(hull, reach, key=itemgetter(0))
    if k == len(hull):
        # hull y-values decrease with x, so the last vertex is the least y
        return hull[-1][1] <= py + slack
    (x0, y0), (x1, y1) = hull[k - 1], hull[k]
    t = (reach - x0) / (x1 - x0)
    return y0 + t * (y1 - y0) <= py + slack


def _hull_dominates_linear(hull, point, slack=0.0):
    """The linear segment scan that hull_dominates replaced by bisection."""
    px, py = point
    reach = px + slack
    if reach < hull[0][0]:
        return False
    if reach >= hull[-1][0]:
        return hull[-1][1] <= py + slack
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if x0 <= reach < x1:
            t = (reach - x0) / (x1 - x0)
            return y0 + t * (y1 - y0) <= py + slack
    return hull[-1][1] <= py + slack
