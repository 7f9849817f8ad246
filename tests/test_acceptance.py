"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines and timings.  Stochastic criteria follow the 3x-half-width rule
and retry once on a fixed secondary seed before failing.
"""

import math
import time

import numpy as np
import pytest

from composite_coder import bss_system as bss
from composite_coder import cli, gaussian_system as gs, montecarlo as mc, specfn
from composite_coder.bss_system import Scheme
from composite_coder.channels import (
    CompositeBsc,
    RatePair,
    RayleighSystem,
    bsc_bc_rate_region,
    optimal_outage_for_capacity,
    outage_capacity_rayleigh,
)
from composite_coder.montecarlo import TrialConfig
from test_specfn import hull_dominates, inverse_binary_entropy

PRIMARY_SEED = 20240917
SECONDARY_SEED = 714025

SNR_SCALES = (0.5, 1.0, 2.0, 5.0)
BSC = CompositeBsc(alpha1=0.25, alpha2=0.45, p=0.5, b=2.0)


def _stochastic(check):
    try:
        check(PRIMARY_SEED)
    except AssertionError:
        check(SECONDARY_SEED)


def _report(number, detail, started):
    print(f"ACCEPTANCE {number:02d} PASS ({time.time() - started:.1f}s): {detail}")


def test_criterion_01_closed_forms_match_numeric_optimizers():
    started = time.time()
    worst_d = worst_c = 0.0
    for scale in SNR_SCALES:
        sys = RayleighSystem(sigma2=1.0, power=scale, gamma_bar=1.0)
        closed_d, _ = gs.optimal_outage_for_distortion(sys)
        numeric_d, _ = specfn.golden_section(
            lambda q: gs.outage_separation_distortion(sys, q), 1e-9, 1.0 - 1e-9, tol=1e-9
        )
        worst_d = max(worst_d, abs(closed_d - numeric_d))
        closed_c = optimal_outage_for_capacity(sys)
        numeric_c, _ = specfn.golden_section(
            lambda q: -outage_capacity_rayleigh(sys, q), 1e-9, 1.0 - 1e-9, tol=1e-9
        )
        worst_c = max(worst_c, abs(closed_c - numeric_c))
    assert worst_d <= 1e-6
    assert worst_c <= 1e-6
    assert time.time() - started < 1.0
    _report(1, f"max |q*_D gap| = {worst_d:.2e}, max |q*_C gap| = {worst_c:.2e}", started)


def test_criterion_02_exponential_integral_identity():
    started = time.time()
    worst = 0.0
    for scale in SNR_SCALES:
        sys = RayleighSystem(sigma2=1.0, power=scale, gamma_bar=1.0)
        closed = gs.uncoded_expected_distortion(sys)
        direct = specfn.integrate(
            lambda g: math.exp(-g) / (1.0 + scale * g), 0.0, math.inf, tol=1e-13
        )
        worst = max(worst, abs(closed - direct) / direct)
    assert worst <= 1e-8
    _report(2, f"max relative gap closed-form vs quadrature = {worst:.2e}", started)


def test_criterion_03_gaussian_scheme_ordering():
    started = time.time()
    powers = np.linspace(0.25, 8.0, 20)
    for power in powers:
        sys = RayleighSystem(sigma2=1.0, power=float(power), gamma_bar=1.0)
        uncoded = gs.uncoded_expected_distortion(sys)
        broadcast = gs.bc_expected_distortion(sys)
        _, outage = gs.optimal_outage_for_distortion(sys)
        assert uncoded < broadcast < outage
        assert broadcast - uncoded > 0.0
        assert (outage - broadcast) < (broadcast - uncoded)
    _report(3, "uncoded < broadcast < outage with gap ordering on all 20 powers", started)


def _discrete_expected_distortion(powers, gammas, gamma_bar):
    suffix = np.cumsum(powers[::-1])[::-1]
    interference = np.concatenate([suffix[1:], [0.0]])
    rates = np.log1p(gammas * powers / (1.0 + gammas * interference))
    cum = np.cumsum(rates)
    edges = np.concatenate([[0.0], gammas, [np.inf]])
    probs = np.exp(-edges[:-1] / gamma_bar) - np.exp(-edges[1:] / gamma_bar)
    decay = np.concatenate([[1.0], np.exp(-cum)])
    return float(np.dot(probs, decay))


def test_criterion_04_broadcast_cross_validation():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    started = time.time()
    sys = RayleighSystem(sigma2=1.0, power=1.0, gamma_bar=1.0)
    closed = gs.bc_expected_distortion(sys)
    levels = 64
    gammas = np.linspace(0.02, 1.5, levels)
    start = np.full(levels, sys.power / levels)
    result = scipy_optimize.minimize(
        lambda x: _discrete_expected_distortion(x, gammas, 1.0),
        start,
        method="SLSQP",
        bounds=[(0.0, sys.power)] * levels,
        constraints=[{"type": "eq", "fun": lambda x: np.sum(x) - sys.power}],
        options={"maxiter": 500, "ftol": 1e-12},
    )
    assert result.success
    gap = abs(result.fun - closed) / closed
    assert gap <= 0.01
    assert time.time() - started < 30.0
    _report(4, f"64-level direct optimization within {gap * 100:.3f}% of closed form", started)


def test_criterion_05_best_scheme_crossovers():
    started = time.time()
    result = bss.expected_distortion_frontier(BSC, [i / 40 for i in range(41)], grid=161)
    found = {(c.scheme_low, c.scheme_high): c.p for c in result.crossovers}
    expected = {
        (Scheme.RESIDUE_SPLITTING, Scheme.SYSTEMATIC_GOOD): 0.378,
        (Scheme.SYSTEMATIC_GOOD, Scheme.SYSTEMATIC_BAD): 0.845,
        (Scheme.SYSTEMATIC_BAD, Scheme.RESIDUE_SPLITTING): 0.956,
    }
    assert set(found) == set(expected)
    gaps = {}
    for pair, target in expected.items():
        gaps[pair] = abs(found[pair] - target)
        assert gaps[pair] <= 0.005, f"{pair}: {found[pair]} vs {target}"
    detail = ", ".join(f"{found[p]:.4f} (target {t})" for p, t in expected.items())
    _report(5, f"crossovers {detail}", started)


def test_criterion_06_region_inclusion():
    started = time.time()
    grid = 161
    residue_hull = bss.sweep_family(BSC, Scheme.RESIDUE_SPLITTING, grid).hull()
    broadcast_hull = bss.sweep_family(BSC, Scheme.BROADCAST, grid).hull()
    for point in broadcast_hull:
        assert hull_dominates(residue_hull, point, slack=1e-12)
    for family in (Scheme.SYSTEMATIC_GOOD, Scheme.SYSTEMATIC_BAD):
        (point,) = bss.sweep_family(BSC, family, grid).hull()
        assert not hull_dominates(residue_hull, point, slack=-1e-4)
    _report(
        6,
        f"{len(broadcast_hull)} broadcast hull points dominated; "
        "both systematic points at least 1e-4 outside",
        started,
    )


def test_criterion_07_special_functions():
    started = time.time()
    worst_w = 0.0
    for k in range(121):
        z = 10.0 ** (-6.0 + 12.0 * k / 120.0)
        w = specfn.lambert_w(z)
        worst_w = max(worst_w, abs(w * math.exp(w) - z) / max(1.0, z))
    assert worst_w <= 1e-12

    worst_e = 0.0
    for i in range(31):
        x = 0.05 + (20.0 - 0.05) * i / 30.0
        direct = math.exp(-x) * specfn.integrate(
            lambda s: math.exp(-s) / (x + s), 0.0, math.inf, tol=1e-13
        )
        worst_e = max(worst_e, abs(specfn.exp_integral(x) - direct) / direct)
    assert worst_e <= 1e-9

    worst_h = 0.0
    for i in range(1, 100):
        r = i / 100.0
        worst_h = max(
            worst_h, abs(specfn.binary_entropy(inverse_binary_entropy(r)) - r)
        )
    assert worst_h <= 1e-9
    _report(
        7,
        f"lambert {worst_w:.1e}, exp-integral {worst_e:.1e}, entropy {worst_h:.1e}",
        started,
    )


def test_criterion_08_wyner_ziv_curve():
    started = time.time()
    for alpha in (0.25, 0.45):
        dc = bss.wyner_ziv_turning_point(alpha)
        below = bss.wyner_ziv_rate(dc - 1e-12, alpha)
        above = bss.wyner_ziv_rate(dc + 1e-12, alpha)
        assert abs(below - above) <= 1e-9

        grid = [alpha * i / 1000.0 for i in range(1001)]
        rates = [bss.wyner_ziv_rate(d, alpha) for d in grid]
        for r0, r1, r2 in zip(rates, rates[1:], rates[2:]):
            assert r1 <= 0.5 * (r0 + r2) + 1e-12

        identity = bss._g(dc, alpha) / (dc - alpha) - bss._g_prime(dc, alpha)
        assert abs(identity) <= 1e-8
    _report(8, "continuity, convexity and turning identity for alpha in {0.25, 0.45}", started)


def test_criterion_09_monte_carlo_targets():
    started = time.time()

    def check(seed):
        r = mc.simulate_uncoded_bsc(TrialConfig(1000, 200, seed), 0.25)
        assert abs(r.mean - 0.25) <= 3.0 * r.half_width_95

        sys = RayleighSystem(sigma2=1.0, power=1.0, gamma_bar=1.0)
        [r] = mc.simulate_uncoded_gaussian(TrialConfig(1000, 200, seed), sys, [1.0])
        assert abs(r.mean - 0.5) <= 3.0 * r.half_width_95

        for n, rate in ((8, 0.5), (12, 0.5), (16, 0.5)):
            rep = mc.simulate_random_quantizer(TrialConfig(n, 200, seed), rate)
            assert rep.mean >= specfn.bss_distortion_rate(rate) - 3.0 * rep.half_width_95

        base, refined = mc.simulate_msvq(TrialConfig(16, 200, seed), 0.5, 0.25)
        assert base.mean >= specfn.bss_distortion_rate(0.5) - 3.0 * base.half_width_95
        assert refined.mean >= specfn.bss_distortion_rate(0.75) - 3.0 * refined.half_width_95
        assert refined.mean <= base.mean + 3.0 * base.half_width_95

    _stochastic(check)
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(9, "uncoded, quantizer and msvq runs inside their 3-sigma bands", started)


def test_criterion_10_superposition_trend():
    started = time.time()
    beta = 0.1
    boundary = bsc_bc_rate_region(BSC, beta)
    rates = RatePair(r1=0.8 * boundary.r1, r2=0.8 * boundary.r2)
    trials = 4000

    repeat_a = mc.simulate_superposition_bc(TrialConfig(64, trials, PRIMARY_SEED), BSC, beta, rates)
    repeat_b = mc.simulate_superposition_bc(TrialConfig(64, trials, PRIMARY_SEED), BSC, beta, rates)
    assert repeat_a == repeat_b

    def check(seed):
        series1, series2 = [], []
        for m in (64, 128, 256):
            err1, err2 = mc.simulate_superposition_bc(
                TrialConfig(m, trials, seed), BSC, beta, rates
            )
            series1.append(err1.mean)
            series2.append(err2.mean)
        assert series1[0] > series1[1] > series1[2], f"state-1 series {series1}"
        assert series2[0] > series2[1] > series2[2], f"state-2 series {series2}"
        return series1, series2

    try:
        series1, series2 = check(PRIMARY_SEED)
    except AssertionError:
        series1, series2 = check(SECONDARY_SEED)
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report(
        10,
        f"state-1 errors {[f'{v:.3f}' for v in series1]}, "
        f"state-2 errors {[f'{v:.3f}' for v in series2]} strictly decreasing",
        started,
    )


def test_criterion_11_cli_determinism(tmp_path):
    started = time.time()
    cases = [
        ["gaussian-compare", "--p-grid", "0.5:4:5"],
        ["bss-region", "--grid", "9"],
        ["bss-frontier", "--grid", "17", "--p-grid", "0:1:5"],
        ["bss-interface", "--grid", "9"],
        ["mc", "uncoded-bsc", "--trials", "50", "--blocklength", "200"],
        ["gaussian-compare", "--p-grid", "0.5:4:3", "--format", "json"],
    ]
    for i, args in enumerate(cases):
        out_a = tmp_path / f"a{i}.out"
        out_b = tmp_path / f"b{i}.out"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
    _report(11, f"{len(cases)} command configurations byte-identical on rerun", started)
