"""Tests for the composite-BSC scheme evaluations, regions and frontiers."""

import math
import random
import sys
import warnings

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from composite_coder import bss_system as bss
from composite_coder import specfn
from composite_coder.bss_system import Scheme, SchemeEvaluation
from composite_coder.channels import CompositeBsc, bsc_bc_rate_region
from test_specfn import hull_dominates, inverse_binary_entropy

CH = CompositeBsc(alpha1=0.25, alpha2=0.45, p=0.5, b=2.0)


def _h(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _conv(a, b):
    return a * (1.0 - b) + b * (1.0 - a)


def _g_oracle(d, alpha):
    return _h(_conv(alpha, d)) - _h(d)


def _g_prime_fd(d, alpha, step=1e-7):
    return (_g_oracle(d + step, alpha) - _g_oracle(d - step, alpha)) / (2.0 * step)


def _turning_point_oracle(alpha):
    """Independent bisection using finite-difference derivatives only."""
    lo, hi = 1e-6, alpha - 1e-6

    def tangent_gap(d):
        return _g_oracle(d, alpha) + _g_prime_fd(d, alpha) * (alpha - d)

    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if tangent_gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _evaluate_layered(ch, beta, rho, scheme):
    """Scalar oracle of the layered families: broadcast (rho = 0) and residue splitting.

    With rho of the source symbols' channel budget reserved for uncoded
    residue transmission, the primary channel has bandwidth ratio (b - rho):
    base layer at rate (b-rho)*r2, refinement at ((b-rho)/(1-rho))*r1 over
    the first (1-rho) fraction of the source.  Python float arithmetic, one
    point at a time, inverting each rate with the scalar
    ``specfn.bss_distortion_rate``.
    """
    rates = bsc_bc_rate_region(ch, beta)
    b = ch.b
    d2 = specfn.bss_distortion_rate((b - rho) * rates.r2)
    if rho < 1.0:
        # at beta = 0 the refinement term is exactly 0, also where its factor overflows
        refine = (b - rho) / (1.0 - rho) * rates.r1 if rates.r1 != 0.0 else 0.0
        d1 = specfn.bss_distortion_rate(refine + (b - rho) * rates.r2)
    else:
        d1 = 0.0  # weighted out below
    big_d1 = (1.0 - rho) * d1 + rho * min(d2, ch.alpha1)
    big_d2 = (1.0 - rho) * d2 + rho * min(d2, ch.alpha2)
    kt = (b - rho) * (rates.r1 + rates.r2) + rho
    kr = (b - rho) * ((1.0 - ch.p) * rates.r1 + rates.r2)
    # uncoded residue is forwarded in state i only when it beats the base layer
    if d2 > ch.alpha2:
        kr += rho
    elif d2 > ch.alpha1:
        kr += (1.0 - ch.p) * rho
    params = {"beta": beta, "rho": rho} if scheme == Scheme.RESIDUE_SPLITTING else {"beta": beta}
    expected = (1.0 - ch.p) * big_d1 + ch.p * big_d2
    return SchemeEvaluation(scheme, params, big_d1, big_d2, expected, kt, kr)


class TestWynerZivCurve:
    def test_rate_vanishes_at_side_information_quality(self):
        assert bss.wyner_ziv_rate(0.25, 0.25) == 0.0

    def test_rate_at_zero_distortion(self):
        assert bss.wyner_ziv_rate(0.0, 0.25) == pytest.approx(_h(0.25), abs=1e-12)

    def test_low_distortion_branch_is_g(self):
        # 0.05 is below the turning point for alpha = 0.25
        assert bss.wyner_ziv_rate(0.05, 0.25) == pytest.approx(
            _g_oracle(0.05, 0.25), abs=1e-12
        )

    def test_chord_branch_past_turning_point(self):
        alpha = 0.25
        dc = bss.wyner_ziv_turning_point(alpha)
        d = 0.5 * (dc + alpha)
        expected = _g_oracle(dc, alpha) * (alpha - d) / (alpha - dc)
        assert bss.wyner_ziv_rate(d, alpha) == pytest.approx(expected, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            bss.wyner_ziv_rate(0.3, 0.25)

    @pytest.mark.parametrize("alpha", [0.25, 0.45])
    def test_turning_point_identity(self, alpha):
        dc = bss.wyner_ziv_turning_point(alpha)
        lhs = _g_oracle(dc, alpha) / (dc - alpha)
        assert lhs == pytest.approx(_g_prime_fd(dc, alpha), abs=1e-5)

    @pytest.mark.parametrize(
        "alpha, golden",
        [(0.25, 0.08802070110939289), (0.45, 0.400672214130181)],
    )
    def test_turning_point_against_independent_oracle(self, alpha, golden):
        oracle = _turning_point_oracle(alpha)
        assert bss.wyner_ziv_turning_point(alpha) == pytest.approx(oracle, abs=1e-6)
        assert bss.wyner_ziv_turning_point(alpha) == pytest.approx(golden, abs=1e-9)

    def test_analytic_derivative_matches_finite_differences(self):
        for alpha in (0.25, 0.45):
            for d in (0.02, 0.05, 0.1, 0.2):
                if d >= alpha:
                    continue
                assert bss._g_prime(d, alpha) == pytest.approx(
                    _g_prime_fd(d, alpha), abs=1e-5
                )

    def test_tangent_line_supports_curve(self):
        for alpha in (0.25, 0.45):
            dc = bss.wyner_ziv_turning_point(alpha)
            slope = bss._g_prime(dc, alpha)
            for i in range(1, 1000):
                d = alpha * i / 1000.0
                assert slope * (d - alpha) <= _g_oracle(d, alpha) + 1e-9

    def test_curve_convex_and_decreasing(self):
        alpha = 0.25
        grid = [alpha * i / 1000.0 for i in range(1001)]
        rates = [bss.wyner_ziv_rate(d, alpha) for d in grid]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        for r0, r1, r2 in zip(rates, rates[1:], rates[2:]):
            assert r1 <= 0.5 * (r0 + r2) + 1e-12

    def test_continuity_at_turning_point(self):
        for alpha in (0.25, 0.45):
            dc = bss.wyner_ziv_turning_point(alpha)
            below = bss.wyner_ziv_rate(dc - 1e-12, alpha)
            above = bss.wyner_ziv_rate(dc + 1e-12, alpha)
            assert abs(below - above) <= 1e-9

    def test_curve_object_validates(self):
        alpha = 0.25
        dc = bss.wyner_ziv_turning_point(alpha)
        assert 0.0 < dc < alpha
        assert abs(bss._g(dc, alpha) / (dc - alpha) - bss._g_prime(dc, alpha)) <= 1e-8


class TestWynerZivDistortion:
    def test_endpoints(self):
        assert bss.wyner_ziv_distortion(0.0, 0.25) == 0.25
        assert bss.wyner_ziv_distortion(_h(0.25), 0.25) == 0.0

    def test_roundtrip(self):
        alpha = 0.25
        top = _h(alpha)
        for i in range(1, 20):
            r = top * i / 20.0
            d = bss.wyner_ziv_distortion(r, alpha)
            assert bss.wyner_ziv_rate(d, alpha) == pytest.approx(r, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            bss.wyner_ziv_distortion(_h(0.25) + 0.01, 0.25)

    def test_printed_digits_match_mpmath(self):
        # the systematic-scheme rate at 157 points with alpha in [0.05, 0.3]
        # and b in [1, 3]; a bisection to min(1e-10, alpha 1e-8) printed 155
        # distortions and an absolute 1e-12 one 117 turning points otherwise
        oracle = pytest.importorskip("mp_oracle")
        rng = random.Random(157)
        for _ in range(157):
            alpha, b = rng.uniform(0.05, 0.3), rng.uniform(1.0, 3.0)
            dc = bss.wyner_ziv_turning_point(alpha)
            assert oracle.g12(dc) == oracle.g12(oracle.turning_point(alpha, dc)), alpha
            top = specfn.binary_entropy(alpha)
            rate = (b - 1.0) * (1.0 - top)
            if rate < top:
                d = bss.wyner_ziv_distortion(rate, alpha)
                exact = oracle.wyner_ziv_distortion(rate, alpha, d, dc)
                assert oracle.g12(d) == oracle.g12(exact), (alpha, b)
        assert f"{bss.systematic_scheme_good(CH).d1:.12g}" == "0.181153461015"

    @pytest.mark.parametrize("alpha", [1e-8, 1e-9, 1e-10, 1e-11])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_roundtrip_at_tiny_alpha(self, alpha, fraction):
        # an absolute 1e-10 stop missed the rate by 6% at alpha = 1e-9 and
        # returned alpha/2 for every rate at alpha <= 1e-10
        r = fraction * _h(alpha)
        d = bss.wyner_ziv_distortion(r, alpha)
        assert bss.wyner_ziv_rate(d, alpha) / r == pytest.approx(1.0, abs=3e-8)


class TestBroadcastScheme:
    def test_shannon_special_case(self):
        s = bss.sweep_family(CH, Scheme.SHANNON, 2)
        d1, d2, kt, kr = (c.item() for c in (s.d1, s.d2, s.kt, s.kr))
        rate = 2.0 * (1.0 - _h(0.45))
        assert d1 == d2
        assert 1.0 - _h(d1) == pytest.approx(rate, abs=1e-9)
        assert kt == pytest.approx(rate, abs=1e-12)
        assert kr == pytest.approx(rate, abs=1e-12)

    def test_outage_special_case(self):
        s = bss.sweep_family(CH, Scheme.OUTAGE, 2)
        d1, d2, kt, kr = (c.item() for c in (s.d1, s.d2, s.kt, s.kr))
        rate = 2.0 * (1.0 - _h(0.25))
        assert d2 == 0.5
        assert 1.0 - _h(d1) == pytest.approx(rate, abs=1e-9)
        assert kt == pytest.approx(rate, abs=1e-12)
        assert kr == pytest.approx((1.0 - CH.p) * rate, abs=1e-12)

    def test_interior_point_composition(self):
        e = bss.broadcast_scheme(CH, 0.1)
        r1 = _h(_conv(0.25, 0.1)) - _h(0.25)
        r2 = 1.0 - _h(_conv(0.45, 0.1))
        assert 1.0 - _h(e.d2) == pytest.approx(2.0 * r2, abs=1e-9)
        assert 1.0 - _h(e.d1) == pytest.approx(2.0 * (r1 + r2), abs=1e-9)
        assert e.expected == (1.0 - CH.p) * e.d1 + CH.p * e.d2

    def test_monotone_in_beta(self):
        sweep = bss.sweep_layered(CH, Scheme.BROADCAST, 101)
        d1, d2, kt = sweep.d1.tolist(), sweep.d2.tolist(), sweep.kt.tolist()
        for i in range(len(d1) - 1):
            assert d1[i] >= d1[i + 1] - 1e-12
            assert d2[i] <= d2[i + 1] + 1e-12
            assert kt[i] <= kt[i + 1] + 1e-12

    def test_receiver_interface_no_larger(self):
        sweep = bss.sweep_layered(CH, Scheme.BROADCAST, 51)
        for kt, kr in zip(sweep.kt.tolist(), sweep.kr.tolist()):
            assert kr <= kt + 1e-12


class TestSystematicSchemes:
    def test_good_state_values(self):
        e = bss.systematic_scheme_good(CH)
        rate = 1.0 - _h(0.25)
        assert e.d2 == 0.45
        assert bss.wyner_ziv_rate(e.d1, 0.25) == pytest.approx(rate, abs=1e-8)
        # golden value recorded from the independent turning-point oracle run
        assert e.d1 == pytest.approx(0.1811534610169474, abs=1e-9)
        assert e.kt == pytest.approx(1.0 + rate, abs=1e-12)
        assert e.kr == pytest.approx(1.0 + 0.5 * rate, abs=1e-12)

    def test_good_state_pure_uncoded_limit(self):
        ch = CompositeBsc(alpha1=0.25, alpha2=0.45, p=0.5, b=1.0)
        e = bss.systematic_scheme_good(ch)
        assert e.d1 == pytest.approx(0.25, abs=1e-12)
        assert e.d2 == 0.45
        assert e.kt == pytest.approx(1.0, abs=1e-12)

    def test_good_state_lossless_clamp(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ch = CompositeBsc(alpha1=0.05, alpha2=0.45, p=0.5, b=5.0)
        e = bss.systematic_scheme_good(ch)
        assert e.d1 == 0.0

    def test_bad_state_case_side_information_wins(self):
        # alpha1 below both d2 and the turning point: raw side information rules
        e = bss.systematic_scheme_bad(CH)
        rate = 1.0 - _h(0.45)
        assert e.d1 == 0.25
        assert bss.wyner_ziv_rate(e.d2, 0.45) == pytest.approx(rate, abs=1e-8)
        assert e.d2 == pytest.approx(0.4374379851127742, abs=1e-9)
        assert e.kt == pytest.approx(1.0 + rate, abs=1e-12)
        assert e.kr == pytest.approx(1.0 + 0.5 * rate, abs=1e-12)

    def test_bad_state_case_code_matches_target(self):
        # d2 below both the turning point and alpha1: decode and keep d2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ch = CompositeBsc(alpha1=0.2, alpha2=0.3, p=0.5, b=4.8)
        e = bss.systematic_scheme_bad(ch)
        rate = (ch.b - 1.0) * (1.0 - _h(0.3))
        assert e.d1 == e.d2
        assert e.d2 < bss.wyner_ziv_turning_point(0.3)
        assert e.kr == pytest.approx(1.0 + rate, abs=1e-12)

    def test_bad_state_case_time_sharing(self):
        ch = CompositeBsc(alpha1=0.2, alpha2=0.3, p=0.5, b=2.0)
        e = bss.systematic_scheme_bad(ch)
        dc2 = bss.wyner_ziv_turning_point(0.3)
        assert dc2 < e.d2  # past the turning point
        theta = (0.3 - e.d2) / (0.3 - dc2)
        assert e.params["theta"] == pytest.approx(theta, abs=1e-12)
        assert e.d1 == pytest.approx(theta * dc2 + (1.0 - theta) * 0.2, abs=1e-12)
        assert e.kr == e.kt  # side-information decoding used in the good state


class TestResidueSplitting:
    def test_rho_zero_equals_broadcast_exactly(self):
        for beta in (0.0, 0.1, 0.25, 0.4, 0.5):
            a = bss.residue_splitting_scheme(CH, beta, 0.0)
            b = _evaluate_layered(CH, beta, 0.0, Scheme.BROADCAST)
            assert (a.d1, a.d2, a.expected, a.kt, a.kr) == (b.d1, b.d2, b.expected, b.kt, b.kr)

    def test_all_uncoded_limit(self):
        beta = 0.1
        e = bss.residue_splitting_scheme(CH, beta, 1.0)
        r2 = 1.0 - _h(_conv(0.45, beta))
        d2 = specfn.bss_distortion_rate((CH.b - 1.0) * r2)
        assert e.d1 == pytest.approx(min(d2, 0.25), abs=1e-12)
        assert e.d2 == pytest.approx(min(d2, 0.45), abs=1e-12)

    def test_worked_point_composition(self):
        beta, rho = 0.1, 0.5
        e = bss.residue_splitting_scheme(CH, beta, rho)
        r1 = _h(_conv(0.25, beta)) - _h(0.25)
        r2 = 1.0 - _h(_conv(0.45, beta))
        d2 = specfn.bss_distortion_rate((2.0 - rho) * r2)
        d1 = specfn.bss_distortion_rate((2.0 - rho) / (1.0 - rho) * r1 + (2.0 - rho) * r2)
        assert e.d1 == pytest.approx((1.0 - rho) * d1 + rho * min(d2, 0.25), abs=1e-12)
        assert e.d2 == pytest.approx((1.0 - rho) * d2 + rho * min(d2, 0.45), abs=1e-12)
        assert e.kt == pytest.approx((2.0 - rho) * (r1 + r2) + rho, abs=1e-12)
        expected_kr = (2.0 - rho) * (0.5 * r1 + r2)
        if d2 > 0.45:
            expected_kr += rho
        elif d2 > 0.25:
            expected_kr += 0.5 * rho
        assert e.kr == pytest.approx(expected_kr, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            bss.residue_splitting_scheme(CH, 0.1, 1.5)

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_invariants(self, beta, rho):
        e = bss.residue_splitting_scheme(CH, beta, rho)
        assert 0.0 <= e.d1 <= e.d2 <= 0.5 + 1e-12
        assert e.expected == (1.0 - CH.p) * e.d1 + CH.p * e.d2
        assert e.kr <= e.kt + 1e-12


class TestDistortionRegion:
    def test_broadcast_hull_endpoints(self):
        hull = bss.sweep_family(CH, Scheme.BROADCAST, 65).hull()
        shannon = bss.sweep_family(CH, Scheme.SHANNON, 2)
        outage = bss.sweep_family(CH, Scheme.OUTAGE, 2)
        assert hull[0] == (outage.d1.item(), outage.d2.item())
        assert hull[-1] == (shannon.d1.item(), shannon.d2.item())

    def test_broadcast_inside_residue_region(self):
        bc_hull = bss.sweep_family(CH, Scheme.BROADCAST, 33).hull()
        rs_hull = bss.sweep_family(CH, Scheme.RESIDUE_SPLITTING, 33).hull()
        for point in bc_hull:
            assert hull_dominates(rs_hull, point, slack=1e-12)

    def test_systematic_points_outside_residue_region(self):
        rs_hull = bss.sweep_family(CH, Scheme.RESIDUE_SPLITTING, 65).hull()
        for fam in (Scheme.SYSTEMATIC_GOOD, Scheme.SYSTEMATIC_BAD):
            (point,) = bss.sweep_family(CH, fam, 65).hull()
            assert not hull_dominates(rs_hull, point, slack=-1e-4)

    def test_hull_grows_with_grid(self):
        # 17-point and 33-point uniform sweeps share nodes (16 | 32), so the
        # finer family contains the coarser one and its hull must dominate
        coarse = bss.sweep_family(CH, Scheme.RESIDUE_SPLITTING, 17).hull()
        fine = bss.sweep_family(CH, Scheme.RESIDUE_SPLITTING, 33).hull()
        for point in coarse:
            assert hull_dominates(fine, point, slack=1e-12)


class TestFrontier:
    def test_family_sandwich(self):
        frontier = bss.expected_distortion_frontier(CH, [0.1, 0.3, 0.5, 0.7, 0.9], grid=33)
        rs = frontier.expected[Scheme.RESIDUE_SPLITTING]
        assert (rs <= frontier.expected[Scheme.BROADCAST] + 1e-12).all()

    def test_systematic_linear_in_p(self):
        frontier = bss.expected_distortion_frontier(CH, [0.0, 0.5, 1.0], grid=2)
        lo, mid, hi = frontier.expected[Scheme.SYSTEMATIC_GOOD].tolist()
        assert mid == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_frontier_points_and_crossovers(self):
        result = bss.expected_distortion_frontier(
            CH, [i / 40 for i in range(41)], grid=65
        )
        assert result.p.tolist() == [i / 40 for i in range(41)]
        columns = list(result.expected.values())
        assert all(c.shape == (41,) for c in columns)
        for i, best in enumerate(result.winner.tolist()):
            assert columns[best][i] == min(c[i] for c in columns)
        schemes = [c for c in result.crossovers]
        assert [(
            c.scheme_low, c.scheme_high) for c in schemes] == [
            (Scheme.RESIDUE_SPLITTING, Scheme.SYSTEMATIC_GOOD),
            (Scheme.SYSTEMATIC_GOOD, Scheme.SYSTEMATIC_BAD),
            (Scheme.SYSTEMATIC_BAD, Scheme.RESIDUE_SPLITTING),
        ]

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match=r"got 1\.2$"):
            bss.expected_distortion_frontier(CH, [0.5, 1.2, -1.0], grid=17)

    def test_exact_residue_broadcast_tie_names_residue_splitting(self):
        # at p = 0 both families reach the outage point (residue splitting at rho = 0)
        result = bss.expected_distortion_frontier(CH, [0.0], grid=33)
        tie = result.expected[Scheme.RESIDUE_SPLITTING].item()
        assert tie == result.expected[Scheme.BROADCAST].item()
        assert tie == min(c.item() for c in result.expected.values())
        assert list(result.expected)[result.winner.item()] == Scheme.RESIDUE_SPLITTING


def _staircase_loop(series):
    """The staircase as a loop over sorted (k, expected) pairs: the oracle of the numpy one."""
    out = []
    running = math.inf
    for k, de in sorted(series):
        running = min(running, de)
        if out and out[-1][0] == k:
            out[-1] = (k, running)
        else:
            out.append((k, running))
    return out


def _assert_staircases_equal_the_loop(kt, kr, expected):
    stairs = bss.interface_staircases(kt, kr, expected)
    for side, k in (("kt", kt), ("kr", kr)):
        got_k, got_de = stairs[side]
        want = _staircase_loop(list(zip(k.tolist(), expected.tolist())))
        assert list(zip(got_k.tolist(), got_de.tolist())) == want


# the three operating points of the pinned CLI tables: (alpha1, alpha2, b, p)
_PINNED_POINTS = [(0.25, 0.45, 2.0, 0.5), (0.2, 0.35, 1.8, 0.3), (0.05, 0.3, 2.2, 0.8)]


class TestInterfaceTradeoff:
    def test_staircases_nonincreasing(self):
        ch = CompositeBsc(alpha1=0.25, alpha2=0.45, p=0.7, b=2.0)
        for sweep in bss.sweep_families(ch, 33, bss.COMPARED_FAMILIES).values():
            for ks, des in bss.interface_staircases(sweep.kt, sweep.kr, sweep.expected).values():
                assert ks.tolist() == sorted(ks.tolist())
                assert all(a >= b - 1e-15 for a, b in zip(des.tolist(), des.tolist()[1:]))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_staircases_equal_the_loop_with_ties(self, data):
        np = pytest.importorskip("numpy")
        # values from a small pool, so that equal k and equal expected both occur
        pool = data.draw(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6))
        n = data.draw(st.integers(0, 40))
        column = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
        kt, kr, expected = (np.array(data.draw(column), dtype=float) for _ in range(3))
        _assert_staircases_equal_the_loop(kt, kr, expected)

    @pytest.mark.parametrize("point", _PINNED_POINTS)
    def test_staircases_equal_the_loop_for_every_family(self, point):
        alpha1, alpha2, b, p = point
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the lossless point warns
            ch = CompositeBsc(alpha1=alpha1, alpha2=alpha2, p=p, b=b)
            sweeps = bss.sweep_families(ch, 33, bss.COMPARED_FAMILIES)
        for sweep in sweeps.values():
            _assert_staircases_equal_the_loop(sweep.kt, sweep.kr, sweep.expected)

    def test_systematic_good_extremes_at_p07(self):
        ch = CompositeBsc(alpha1=0.25, alpha2=0.45, p=0.7, b=2.0)
        sg = bss.systematic_scheme_good(ch)
        sweeps = (
            bss.sweep_layered(ch, Scheme.BROADCAST, 65),
            bss.sweep_layered(ch, Scheme.RESIDUE_SPLITTING, 33),
            bss.sweep_family(ch, Scheme.SYSTEMATIC_BAD, 2),
        )
        assert all(sg.expected < de for s in sweeps for de in s.expected.tolist())
        assert all(sg.kt > kt for s in sweeps for kt in s.kt.tolist())

    def test_broadcast_distortion_not_monotone_in_complexity(self):
        ch = CompositeBsc(0.25, 0.45, 0.7, 2.0)
        # kt increases along the sweep
        des = bss.sweep_layered(ch, Scheme.BROADCAST, 101).expected.tolist()
        drops = any(a > b for a, b in zip(des, des[1:]))
        rises = any(a < b for a, b in zip(des, des[1:]))
        assert drops and rises


# the benchmark's operating range: 3 x 2 x 3 points, plus one lossless point
_ARRAY_POINTS = [
    (alpha1, alpha1 + gap, b)
    for alpha1 in (0.2, 0.25, 0.3)
    for gap in (0.05, 0.15)
    for b in (1.8, 2.0, 2.2)
]
_LOSSLESS_POINT = (0.05, 0.3, 2.2)  # b * (1 - h(alpha1)) = 1.57 >= 1


def _channel(alpha1, alpha2, b, p=0.37):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the lossless point warns
        return CompositeBsc(alpha1=alpha1, alpha2=alpha2, p=p, b=b)


def _fields(e):
    return (e.d1, e.d2, e.expected, e.kt, e.kr)


class TestArrayCore:
    @pytest.mark.parametrize("point", _ARRAY_POINTS + [_LOSSLESS_POINT])
    def test_mesh_equals_scalar_evaluators_exactly(self, point):
        ch = _channel(*point)
        for family in (Scheme.BROADCAST, Scheme.RESIDUE_SPLITTING):
            sweep = bss.sweep_layered(ch, family, 33)
            columns = [
                c.tolist()
                for c in (sweep.beta, sweep.rho, sweep.d1, sweep.d2, sweep.expected, sweep.kt, sweep.kr)
            ]
            assert len(columns[0]) == (33 if family == Scheme.BROADCAST else 33 * 33)
            for beta, rho, *fields in zip(*columns):
                oracle = _evaluate_layered(ch, beta, rho, family)
                assert tuple(fields) == _fields(oracle), (family, beta, rho)

    @given(
        st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        st.floats(0.0, 1.0),
        st.floats(1.0, 1e300),
        st.floats(0.0, 0.5),
        st.floats(0.0, 1.0),
    )
    @example(0.25, 0.45, 0.5, 2.0, 0.1, 1.0)  # rho = 1: the refinement is weighted out
    @example(0.25, 0.45, 0.5, 1.0, 0.1, 1.0)  # b = rho = 1: its rate factor would be 0/0
    @example(0.25, 0.45, 0.5, 1.0, 0.3, 0.5)  # b = 1
    @settings(max_examples=200, deadline=None)
    def test_one_point_core_equals_oracle(self, a, c, p, b, beta, rho):
        alpha1, alpha2 = sorted((a, c))
        assume(alpha1 < alpha2)
        ch = _channel(alpha1, alpha2, b, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e, (r, family) in (
                (bss.broadcast_scheme(ch, beta), (0.0, Scheme.BROADCAST)),
                (bss.residue_splitting_scheme(ch, beta, rho), (rho, Scheme.RESIDUE_SPLITTING)),
            ):
                oracle = _evaluate_layered(ch, beta, r, family)
                assert (e.scheme, _fields(e), e.params) == (family, _fields(oracle), oracle.params)

    def test_lossless_point_reaches_zero_distortion(self):
        sweep = bss.sweep_layered(_channel(*_LOSSLESS_POINT), Scheme.RESIDUE_SPLITTING, 17)
        assert (sweep.d1 == 0.0).any()

    def test_evaluations_keep_grid_order_and_params(self):
        sweep = bss.sweep_layered(CH, Scheme.RESIDUE_SPLITTING, 5)
        assert list(zip(sweep.beta.tolist()[:6], sweep.rho.tolist()[:6])) == [
            (0.0, 0.0), (0.0, 0.25 * bss.RHO_MAX), (0.0, 0.5 * bss.RHO_MAX),
            (0.0, 0.75 * bss.RHO_MAX), (0.0, bss.RHO_MAX), (0.125, 0.0),
        ]
        point = bss.residue_splitting_scheme(CH, 0.125, 0.5 * bss.RHO_MAX)
        columns = (sweep.d1, sweep.d2, sweep.expected, sweep.kt, sweep.kr)
        assert tuple(c[7].item() for c in columns) == _fields(point)
        ((n, beta, rho),) = bss.sweep_layered(CH, Scheme.BROADCAST, 3).param_blocks()
        assert (n, beta.tolist(), rho) == (3, [0.0, 0.25, 0.5], None)

    @pytest.mark.parametrize("family", list(Scheme))
    def test_param_blocks_match_params(self, family):
        sweep = bss.sweep_family(CH, family, 7)
        params = [
            _scalar_evaluation(CH, family, beta, rho).params
            for beta, rho in zip(sweep.beta.tolist(), sweep.rho.tolist())
        ]
        assert _param_columns(sweep) == (
            [e.get("beta") for e in params], [e.get("rho") for e in params],
        )

    def test_mesh_param_blocks_share_one_rho_array(self):
        blocks = bss.sweep_layered(CH, Scheme.RESIDUE_SPLITTING, 5).param_blocks()
        assert [(n, beta) for n, beta, _ in blocks] == [(5, 0.125 * i) for i in range(5)]
        assert all(rho is blocks[0][2] for _, _, rho in blocks)

    def test_distortion_rate_array_matches_scalar(self):
        np = pytest.importorskip("numpy")
        rng = np.random.default_rng(6)
        rates = np.concatenate([
            rng.random(4000),
            rng.random(1000) * 1e-6,
            [0.0, 1e-17, 2.0**-54, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, 1.5],
        ])
        got = specfn.bss_distortion_rate_array(rates).tolist()
        assert got == [specfn.bss_distortion_rate(r) for r in rates.tolist()]
        with pytest.raises(ValueError):
            specfn.bss_distortion_rate_array(np.array([0.5, -1e-300]))

    def test_invariant_violation_raises(self, monkeypatch):
        # a transcription bug that inflates distortions past 1/2 must not pass
        monkeypatch.setattr(specfn, "bss_distortion_rate_array", lambda rate: 1.0 + 0.0 * rate)
        with pytest.raises(AssertionError, match="distortions out of order"):
            bss.sweep_layered(CH, Scheme.RESIDUE_SPLITTING, 5)

    def test_mesh_budget_refuses_before_allocating(self):
        with pytest.raises(specfn.BudgetError):
            bss.sweep_layered(CH, Scheme.RESIDUE_SPLITTING, 1449)
        with pytest.raises(specfn.BudgetError):
            bss.sweep_layered(CH, Scheme.BROADCAST, bss.MESH_CAP + 1)
        assert 1025**2 <= bss.MESH_CAP < 1449**2

    def test_budget_error_is_shared_with_montecarlo(self):
        from composite_coder import montecarlo

        assert montecarlo.BudgetError is specfn.BudgetError

    @pytest.mark.parametrize("point", [_ARRAY_POINTS[0], _ARRAY_POINTS[-1], _LOSSLESS_POINT])
    def test_hull_equals_hull_of_all_points(self, point):
        ch = _channel(*point)
        for family in (Scheme.BROADCAST, Scheme.RESIDUE_SPLITTING):
            sweep = bss.sweep_layered(ch, family, 33)
            points = list(zip(sweep.d1.tolist(), sweep.d2.tolist()))
            assert sweep.hull() == specfn.pareto_lower_hull(points)

    def test_hull_dominates_array_matches_scalar(self):
        np = pytest.importorskip("numpy")
        sweep = bss.sweep_layered(CH, Scheme.RESIDUE_SPLITTING, 17)
        hull = sweep.hull()
        rng = np.random.default_rng(11)
        x = np.concatenate([sweep.d1, rng.random(500) * 0.6 - 0.05, [hull[0][0], hull[-1][0]]])
        y = np.concatenate([sweep.d2, rng.random(500) * 0.6 - 0.05, [hull[0][1], hull[-1][1]]])
        for slack in (0.0, 1e-9, -1e-9):
            # the relative slack moves each coordinate, then compares at zero slack
            pad = math.copysign(5e-324, slack) if slack else 0.0
            moved = [(px + (slack * abs(px) + pad), py + (slack * abs(py) + pad))
                     for px, py in zip(x.tolist(), y.tolist())]
            got = bss.hull_dominates_array(hull, x, y, slack).tolist()
            assert got == [hull_dominates(hull, p) for p in moved]
        single = [hull[0]]
        got = bss.hull_dominates_array(single, x, y).tolist()
        assert got == [hull_dominates(single, p) for p in zip(x.tolist(), y.tolist())]


_THETA_POINT = (0.2, 0.3, 2.0)  # systematic_bad time-shares past the turning point
# the one-point families: the broadcast endpoints by the oracle, the systematic
# families by their evaluators
_POINT_EVALUATORS = {
    Scheme.SHANNON: lambda ch: _evaluate_layered(ch, 0.0, 0.0, Scheme.SHANNON),
    Scheme.OUTAGE: lambda ch: _evaluate_layered(ch, 0.5, 0.0, Scheme.OUTAGE),
    Scheme.SYSTEMATIC_GOOD: bss.systematic_scheme_good,
    Scheme.SYSTEMATIC_BAD: bss.systematic_scheme_bad,
}


def _param_columns(sweep):
    """beta and rho per point as table cells, expanded from the sweep's param blocks."""
    columns = ([], [])
    for n, *entries in sweep.param_blocks():
        for column, entry in zip(columns, entries):
            column.extend(entry.tolist() if hasattr(entry, "tolist") else [entry] * n)
    return columns


def _scalar_evaluation(ch, family, beta, rho):
    """The oracle or evaluator of ``family`` at the sweep point (beta, rho)."""
    if family in (Scheme.BROADCAST, Scheme.RESIDUE_SPLITTING):
        return _evaluate_layered(ch, beta, rho, family)
    return _POINT_EVALUATORS[family](ch)


class TestRegistry:
    @pytest.mark.parametrize("point", _ARRAY_POINTS + [_LOSSLESS_POINT, _THETA_POINT])
    def test_point_families_equal_scalar_evaluators(self, point):
        ch = _channel(*point)
        for family, scalar in _POINT_EVALUATORS.items():
            e = scalar(ch)
            sweep = bss.sweep_family(ch, family, 33)
            columns = (sweep.d1, sweep.d2, sweep.expected, sweep.kt, sweep.kr)
            assert sweep.scheme == family
            assert tuple(c.tolist() for c in columns) == tuple([v] for v in _fields(e))
            assert _param_columns(sweep) == ([e.params.get("beta")], [None])

    @pytest.mark.parametrize("family", list(Scheme))
    def test_region_and_best_accept_every_family(self, family):
        sweep = bss.sweep_family(CH, family, 17)
        points = list(zip(sweep.d1.tolist(), sweep.d2.tolist()))
        hull = sweep.hull()
        assert hull == specfn.pareto_lower_hull(points)
        grid = [0.0, 0.37, 1.0]
        best = [min((1.0 - p) * d1 + p * d2 for d1, d2 in points) for p in grid]
        assert bss.hull_envelope(hull, grid).tolist() == pytest.approx(best, abs=1e-15)

    def test_families_keep_the_given_order(self):
        families = (Scheme.SYSTEMATIC_BAD, Scheme.BROADCAST, Scheme.RESIDUE_SPLITTING)
        sweeps = bss.sweep_families(CH, 5, families)
        assert tuple(sweeps) == families
        assert all(sweeps[f].scheme == f for f in families)

    def test_residue_splitting_budget_refuses_first(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bss, "systematic_scheme_good", lambda ch: calls.append(ch))
        with pytest.raises(specfn.BudgetError):
            bss.sweep_families(CH, 1449, (Scheme.SYSTEMATIC_GOOD, Scheme.RESIDUE_SPLITTING))
        assert calls == []


def _inverse_inputs():
    """Entropy targets in (0, 1): uniform, tiny, within 1e-15 of 1, and h(k * 2^-40)."""
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(20)
    dyadic = [specfn.binary_entropy(k * 2.0**-40) for k in rng.integers(1, 2**39, 500).tolist()]
    r = np.concatenate([
        rng.random(1500),
        10.0 ** rng.uniform(-320.0, -1.0, 500),
        1.0 - 10.0 ** rng.uniform(-15.95, -8.0, 300),
        dyadic,
        [5e-324, 1e-300, 2.0**-40, 0.5, 1.0 - 2.0**-53, specfn.binary_entropy(2.0**-40)],
    ])
    return r[(r > 0.0) & (r < 1.0)]


_TARGETS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(5e-324, 1e-300),
    st.floats(2.0**-53, 1e-15).map(lambda x: 1.0 - x),
    st.integers(1, 2**39 - 1).map(lambda k: specfn.binary_entropy(k * 2.0**-40)).filter(
        lambda r: r < 1.0  # h(1/2 - 2^-40) rounds to 1
    ),
)


class TestEntropyInverse:
    """``specfn._inverse_entropy`` of arrays against the scalar ``inverse_binary_entropy``."""

    @given(st.lists(_TARGETS, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_inverse_equals_scalar(self, targets):
        np = pytest.importorskip("numpy")
        r = np.array(targets)
        got = specfn._inverse_entropy(r, 1.0 - r).tolist()
        assert got == [inverse_binary_entropy(x) for x in targets]

    def test_inverse_raises_no_warning(self):
        np = pytest.importorskip("numpy")
        r = _inverse_inputs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                specfn._inverse_entropy(r, 1.0 - r)
                specfn.bss_distortion_rate_array(r)

class TestRangeEdges:
    def test_huge_b_is_finite_and_array_equals_scalar(self):
        np = pytest.importorskip("numpy")
        ch = _channel(0.25, 0.45, sys.float_info.max, p=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = bss.residue_splitting_scheme(ch, 0.0, 0.5)
            assert all(math.isfinite(v) for v in _fields(e))
            assert _fields(e) == _fields(_evaluate_layered(ch, 0.0, 0.5, Scheme.RESIDUE_SPLITTING))
            for family in (Scheme.BROADCAST, Scheme.RESIDUE_SPLITTING):
                sweep = bss.sweep_layered(ch, family, 9)
                columns = (sweep.d1, sweep.d2, sweep.expected, sweep.kt, sweep.kr)
                assert all(np.isfinite(c).all() for c in columns)
                for i, (beta, rho) in enumerate(zip(sweep.beta.tolist(), sweep.rho.tolist())):
                    oracle = _evaluate_layered(ch, beta, rho, family)
                    assert tuple(c[i].item() for c in columns) == _fields(oracle)

    @pytest.mark.parametrize(
        "alpha",
        [1e-12, 1e-10, 1e-9, 3e-9, 1e-7, 1e-5, 5e-5, 1e-3, 0.05, 0.25, 0.45, 0.49, 0.4999, 0.499999],
    )
    def test_tiny_alpha_turning_point_matches_mpmath(self, alpha):
        # Newton on the float tangent gap is within about 40 ulps of dc at
        # alpha = 1e-12 and 15 at 0.45; nearer 1/2 the gap shrinks like
        # (1/2 - alpha)^2 and Newton loses digits (about 200 ulps at 0.499),
        # and within 2e-4 of 1/2 dc is a series exact to rounding.
        oracle = pytest.importorskip("mp_oracle")
        dc = bss.wyner_ziv_turning_point(alpha)
        assert 0.0 < dc < alpha
        assert oracle.ulps(dc, oracle.turning_point(alpha, dc)) <= 64.0

    def test_alpha_near_half_is_resolved(self):
        # a bisection of the tangent gap found no sign change at three of
        # these; at 0.5 - 1e-10 the rate 1 - h(alpha2) and g(dc) round to 0
        for alpha2 in (0.499999999, 0.5 - 1e-10, 0.5 - 1e-12, 0.5 - 2.0**-54):
            eps = 0.5 - alpha2
            assert bss.wyner_ziv_turning_point(alpha2) == 2.0 * alpha2 - 0.5 + 16.0 / 3.0 * eps**3
            ch = _channel(0.25, alpha2, 2.0)
            for e in (bss.systematic_scheme_good(ch), bss.systematic_scheme_bad(ch)):
                assert all(math.isfinite(v) for v in _fields(e))

    def test_curve_identity_holds_across_the_fixed_bracket(self):
        # an absolute 1e-12 stop left dc up to 1e-3 of itself off here, and
        # the 1e-8 turning-point residual failed for 189 of these alphas
        for i in range(200):
            alpha = 5.4e-5 * (8.1e-3 / 5.4e-5) ** (i / 199)
            dc = bss.wyner_ziv_turning_point(alpha)
            assert 0.0 < dc < alpha
            assert abs(bss._g(dc, alpha) / (dc - alpha) - bss._g_prime(dc, alpha)) <= 1e-8, alpha

    def test_unresolved_turning_point_is_refused(self):
        with pytest.raises(ValueError, match="below 1e-12"):
            bss.wyner_ziv_turning_point(1e-13)
