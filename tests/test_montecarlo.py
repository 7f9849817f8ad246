"""Tests for the Monte Carlo simulations: determinism, targets, bounds.

Stochastic assertions follow the 3x-half-width rule with one retry on a
fixed secondary seed before declaring failure.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from composite_coder import cli
from composite_coder import montecarlo as mc
from composite_coder import specfn
from composite_coder.channels import CompositeBsc, RatePair, RayleighSystem, bsc_bc_rate_region
from composite_coder.montecarlo import TrialConfig, TrialReport

PRIMARY_SEED = 20240917
SECONDARY_SEED = 714025


def stochastic(check):
    """Run a seed-parameterized check, retrying once on the backup seed."""
    try:
        check(PRIMARY_SEED)
    except AssertionError:
        check(SECONDARY_SEED)


class TestConfigAndReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(blocklength=0, trials=10, seed=1)
        with pytest.raises(ValueError):
            TrialConfig(blocklength=8, trials=0, seed=1)
        with pytest.raises(ValueError):
            TrialConfig(blocklength=8, trials=10, seed=-1)

    def test_half_width_formula(self):
        report = mc.simulate_uncoded_bsc(TrialConfig(64, 50, 3), 0.3)
        assert report.trials == 50
        assert report.half_width_95 > 0.0


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = TrialConfig(blocklength=256, trials=40, seed=42)
        a = mc.simulate_uncoded_bsc(cfg, 0.25)
        b = mc.simulate_uncoded_bsc(cfg, 0.25)
        assert a == b

    def test_superposition_counts_reproducible(self):
        ch = CompositeBsc(0.25, 0.45, 0.5, 2.0)
        rates = RatePair(r1=0.05, r2=0.003)
        cfg = TrialConfig(blocklength=64, trials=100, seed=99)
        first = mc.simulate_superposition_bc(cfg, ch, 0.1, rates)
        second = mc.simulate_superposition_bc(cfg, ch, 0.1, rates)
        assert first == second


class TestUncodedBsc:
    def test_noiseless(self):
        report = mc.simulate_uncoded_bsc(TrialConfig(128, 20, 5), 0.0)
        assert report.mean == 0.0

    def test_pure_noise(self):
        def check(seed):
            r = mc.simulate_uncoded_bsc(TrialConfig(1000, 100, seed), 0.5)
            assert abs(r.mean - 0.5) <= 3.0 * r.half_width_95

        stochastic(check)

    def test_matches_crossover(self):
        def check(seed):
            r = mc.simulate_uncoded_bsc(TrialConfig(1000, 200, seed), 0.25)
            assert abs(r.mean - 0.25) <= 3.0 * r.half_width_95

        stochastic(check)


class TestUncodedGaussian:
    SYS = RayleighSystem(sigma2=1.0, power=1.0, gamma_bar=1.0)

    def test_zero_gain_returns_variance(self):
        def check(seed):
            r = mc.simulate_uncoded_gaussian(TrialConfig(1000, 100, seed), self.SYS, 0.0)
            assert abs(r.mean - 1.0) <= 3.0 * r.half_width_95

        stochastic(check)

    def test_unit_gain_target(self):
        def check(seed):
            r = mc.simulate_uncoded_gaussian(TrialConfig(1000, 200, seed), self.SYS, 1.0)
            assert abs(r.mean - 0.5) <= 3.0 * r.half_width_95

        stochastic(check)

    def test_more_power_reduces_distortion(self):
        strong = RayleighSystem(sigma2=1.0, power=2.0, gamma_bar=1.0)

        def check(seed):
            cfg = TrialConfig(1000, 100, seed)
            weak_r = mc.simulate_uncoded_gaussian(cfg, self.SYS, 1.0)
            strong_r = mc.simulate_uncoded_gaussian(cfg, strong, 1.0)
            assert strong_r.mean < weak_r.mean

        stochastic(check)


class TestRandomQuantizer:
    def test_lossless_with_exhaustive_codebook(self):
        report = mc.simulate_random_quantizer(TrialConfig(8, 30, 11), 1.0)
        assert report.mean == 0.0

    def test_zero_rate_guesses(self):
        def check(seed):
            r = mc.simulate_random_quantizer(TrialConfig(256, 100, seed), 0.0)
            assert abs(r.mean - 0.5) <= 3.0 * r.half_width_95

        stochastic(check)

    def test_respects_rate_distortion_converse(self):
        bound = specfn.bss_distortion_rate(0.5)

        def check(seed):
            means = []
            for n in (8, 12, 16):
                r = mc.simulate_random_quantizer(TrialConfig(n, 200, seed), 0.5)
                assert r.mean >= bound - 3.0 * r.half_width_95
                means.append(r.mean)
            assert means[0] > means[1] > means[2]  # finite-length excess shrinks

        stochastic(check)

    def test_budget_cap(self):
        with pytest.raises(mc.BudgetError):
            mc.simulate_random_quantizer(TrialConfig(100, 10, 1), 0.5)


class TestMsvq:
    def test_zero_refinement_rate_is_identity(self):
        base, refined = mc.simulate_msvq(TrialConfig(16, 50, 13), 0.5, 0.0)
        assert base == refined

    def test_converse_bounds_and_refinement(self):
        def check(seed):
            base, refined = mc.simulate_msvq(TrialConfig(16, 200, seed), 0.5, 0.25)
            assert base.mean >= specfn.bss_distortion_rate(0.5) - 3.0 * base.half_width_95
            assert refined.mean >= specfn.bss_distortion_rate(0.75) - 3.0 * refined.half_width_95
            assert refined.mean <= base.mean + 3.0 * base.half_width_95

        stochastic(check)

    def test_budget_cap(self):
        with pytest.raises(mc.BudgetError):
            mc.simulate_msvq(TrialConfig(64, 10, 1), 0.3, 0.2)


class TestSuperposition:
    CH = CompositeBsc(0.25, 0.45, 0.5, 2.0)

    def test_single_codewords_never_err(self):
        report1, report2 = mc.simulate_superposition_bc(
            TrialConfig(64, 50, 17), self.CH, 0.1, RatePair(r1=0.0, r2=0.0)
        )
        assert report1.mean == 0.0
        assert report2.mean == 0.0

    def test_error_rates_fall_with_blocklength(self):
        boundary = bsc_bc_rate_region(self.CH, 0.1)
        rates = RatePair(r1=0.8 * boundary.r1, r2=0.8 * boundary.r2)

        def check(seed):
            err1, err2 = [], []
            for m in (64, 128, 256):
                r1, r2 = mc.simulate_superposition_bc(
                    TrialConfig(m, 1500, seed), self.CH, 0.1, rates
                )
                err1.append(r1.mean)
                err2.append(r2.mean)
            assert err1[0] > err1[1] > err1[2]
            assert err2[0] > err2[1] > err2[2]

        stochastic(check)

    def test_above_boundary_base_rate_fails(self):
        boundary = bsc_bc_rate_region(self.CH, 0.1)
        rates = RatePair(r1=0.0, r2=1.2 * boundary.r2)

        def check(seed):
            _, err2 = mc.simulate_superposition_bc(
                TrialConfig(256, 800, seed), self.CH, 0.1, rates
            )
            assert err2.mean >= 0.5

        stochastic(check)

    def test_budget_cap(self):
        with pytest.raises(mc.BudgetError):
            mc.simulate_superposition_bc(
                TrialConfig(2000, 10, 1), self.CH, 0.1, RatePair(r1=0.5, r2=0.01)
            )


class TestPinnedOutputs:
    """Exact reports of every simulation, so a faster kernel or a different
    generator setup cannot move a single draw unnoticed.  Superposition runs
    at m = 64 and at m = 100 (not a multiple of the 64-bit word); both of its
    codebooks hold more than one word there."""

    CH = CompositeBsc(0.25, 0.45, 0.5, 2.0)

    def rates(self):
        boundary = bsc_bc_rate_region(self.CH, 0.1)
        return RatePair(r1=0.8 * boundary.r1, r2=0.8 * boundary.r2)

    def test_uncoded(self):
        assert mc.simulate_uncoded_bsc(TrialConfig(100, 30, 5), 0.3) == TrialReport(
            0.29600000000000004, 0.014424444131603379, 30, 5
        )
        sys_ = RayleighSystem(1.0, 2.0, 1.0)
        assert mc.simulate_uncoded_gaussian(TrialConfig(50, 30, 6), sys_, 0.7) == TrialReport(
            0.4377661712085291, 0.029164718452287124, 30, 6
        )

    def test_quantizer(self):
        assert mc.simulate_random_quantizer(TrialConfig(10, 30, 7), 1.0) == TrialReport(
            0.0, 0.0, 30, 7
        )
        assert mc.simulate_random_quantizer(TrialConfig(12, 50, 8), 0.5) == TrialReport(
            0.1733333333333333, 0.016057673831812905, 50, 8
        )
        assert mc.simulate_random_quantizer(TrialConfig(70, 30, 9), 0.2) == TrialReport(
            0.26380952380952377, 0.006540226248913195, 30, 9
        )

    def test_msvq(self):
        assert mc.simulate_msvq(TrialConfig(16, 40, 10), 0.5, 0.25) == (
            TrialReport(0.1734375, 0.0148662540276326, 40, 10),
            TrialReport(0.1125, 0.014008410934973207, 40, 10),
        )
        assert mc.simulate_msvq(TrialConfig(70, 20, 11), 0.2, 0.1) == (
            TrialReport(0.2657142857142857, 0.008226273697572213, 20, 11),
            TrialReport(0.22142857142857145, 0.010257731358910647, 20, 11),
        )

    @pytest.mark.parametrize(
        "m, seed, good, bad",
        [
            (64, 12, (0.5, 0.12758513276120736), (0.5666666666666667, 0.1264459569842578)),
            (100, 13, (0.4666666666666667, 0.12730129451693484),
             (0.5666666666666667, 0.1264459569842578)),
        ],
    )
    def test_superposition(self, m, seed, good, bad):
        rates = self.rates()
        assert math.ceil(2 ** (m * rates.r1)) > 1 and math.ceil(2 ** (m * rates.r2)) > 1
        got = mc.simulate_superposition_bc(TrialConfig(m, 60, seed), self.CH, 0.1, rates)
        assert got == (TrialReport(*good, 60, seed), TrialReport(*bad, 60, seed))

    def test_cli_superposition_bytes(self, capsys):
        assert cli.main(["mc", "superposition", "--trials", "20"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "0a23ab562ad3ced838ee98670f1c5451c0600477ab24d39aeacfdb421c346da3"


class TestPackedKernel:
    """The bool-array distance is the oracle for the packed kernel."""

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 200, 256])
    def test_distances_match_bool_oracle(self, m):
        rng = np.random.default_rng(m)
        book = rng.random((97, m)) < 0.3
        word = rng.random(m) < 0.5
        expected = np.count_nonzero(book ^ word, axis=1)
        got = mc._distances(mc._pack(book), mc._pack(word))
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("m", [1, 65, 200])
    def test_block_draw_equals_single_draw(self, m, monkeypatch):
        # blocks of 7 rows (or one row for m > 7) against one draw of the whole book
        monkeypatch.setattr(mc, "_BLOCK_DRAWS", 7)
        book = mc._draw_codebook(np.random.Generator(np.random.Philox(key=[1, m])), 50, m, 0.3)
        whole = np.random.Generator(np.random.Philox(key=[1, m])).random((50, m)) < 0.3
        assert np.array_equal(book, mc._pack(whole))

    def test_exhaustive_codebook_enumerates_words(self):
        n = 5
        book = mc._source_codebook(seed=1, size=2**n, n=n)
        ints = np.arange(2**n)
        bits = ((ints[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
        assert np.array_equal(book, mc._pack(bits))

    def test_rekeyed_stream_matches_fresh_generator(self):
        at = mc._stream(seed=2**64 - 1, stream=3)
        for trial in (5, 1, 2**31):
            key = np.array([2**64 - 1, (trial << 32) | 3], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key))
            rng = at(trial)
            assert np.array_equal(rng.random(9), fresh.random(9))
            assert rng.integers(1000) == fresh.integers(1000)

    def test_high_seeds_keep_every_bit(self):
        # seeds of 2^63 and above once collided after a float64 conversion
        for seed in (2**63, 2**63 + 1, 2**64 - 1):
            rng = mc._stream(seed, 0)(1)
            assert int(rng.bit_generator.state["state"]["key"][0]) == seed


class TestCodebookMemory:
    def test_cap_counts_packed_words(self):
        # 2^21.4 entries pass an entry cap of 2^24, but at 7 uint64 words
        # each they would take 151 MiB packed
        with pytest.raises(mc.BudgetError):
            mc._codebook_size(0.05, 428)
        with pytest.raises(mc.BudgetError):
            mc._codebook_size(24 / 65, 65)

    def test_cap_keeps_single_word_codebooks(self):
        assert mc._codebook_size(1.0, 24) == mc.CODEBOOK_CAP
        assert mc._codebook_size(0.375, 64) == mc.CODEBOOK_CAP
        assert mc._codebook_size(0.2, 100) == 2**20

    def test_large_codebook_stays_near_packed_size(self):
        # 2^20 words of 40 bits: 8 MiB packed, against 335 MB for a float64
        # draw of the whole codebook at once
        tracemalloc.start()
        try:
            report = mc.simulate_random_quantizer(TrialConfig(40, 2, 3), 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.trials == 2
        assert peak < 64 * 2**20
