"""Tests for the Monte Carlo simulations: determinism, targets, bounds.

Stochastic assertions follow the 3x-half-width rule with one retry on a
fixed secondary seed before declaring failure.
"""

import hashlib
import math
import tracemalloc
from fractions import Fraction

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

    @pytest.mark.parametrize("scale", [2.0**-60, 1e-3, 1.0, 3.0, 1e100])
    def test_scaled_statistics_keep_the_unscaled_bits(self, scale):
        values = np.random.default_rng(5).standard_normal(101) * scale
        report = mc._report(values, TrialConfig(1, values.size, 0))
        assert report.mean == float(values.mean())
        assert report.half_width_95 == 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)

    def test_half_width_of_huge_values(self):
        # the squared deviations, about 1e320, would leave the float range
        values = [1e160, 3e160, 2.5e160]
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / 3
        variance = sum((v - mean) ** 2 for v in exact) / 2
        report = mc._report(np.array(values), TrialConfig(1, 3, 0))
        assert report.mean == pytest.approx(float(mean), rel=1e-15)
        # sqrt(variance/3), formed at 2^-400 of its square to stay in range
        half = 1.96 * math.sqrt(float(variance / 3 / 2**400)) * 2.0**200
        assert report.half_width_95 == pytest.approx(half, rel=1e-15)


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
            [r] = mc.simulate_uncoded_gaussian(TrialConfig(1000, 100, seed), self.SYS, [0.0])
            assert abs(r.mean - 1.0) <= 3.0 * r.half_width_95

        stochastic(check)

    def test_unit_gain_target(self):
        def check(seed):
            [r] = mc.simulate_uncoded_gaussian(TrialConfig(1000, 200, seed), self.SYS, [1.0])
            assert abs(r.mean - 0.5) <= 3.0 * r.half_width_95

        stochastic(check)

    def test_more_power_reduces_distortion(self):
        strong = RayleighSystem(sigma2=1.0, power=2.0, gamma_bar=1.0)

        def check(seed):
            cfg = TrialConfig(1000, 100, seed)
            [weak_r] = mc.simulate_uncoded_gaussian(cfg, self.SYS, [1.0])
            [strong_r] = mc.simulate_uncoded_gaussian(cfg, strong, [1.0])
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
        assert mc.simulate_uncoded_gaussian(TrialConfig(50, 30, 6), sys_, [0.7]) == [TrialReport(
            0.4377661712085291, 0.029164718452287124, 30, 6
        )]

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
        # re-recorded when the parameter string was cut down to the keys the
        # command reads; test_cli's _PINNED_DATA_SHA256 holds the rest of it
        assert cli.main(["mc", "superposition", "--trials", "20"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "0334c0158aca6e8b0459cae5c415672b7b4a35cf6ff5ac7dcaac3602f6bc1dbb"


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


# The simulations as they were before chunking: one trial at a time, with
# float draws (``random() < p``) and one codebook draw per book.  They are
# the oracle for the chunked kernels, which must give the same reports.


def _loop_codebook(rng, size, n, p):
    return mc._pack(rng.random((size, n)) < p)


def _loop_source_codebook(seed, size, n):
    if size >= 2**n:
        return np.arange(2**n, dtype=np.uint64)[:, None]
    return _loop_codebook(mc._stream(seed, 0)(0), size, n, 0.5)


def _loop_distances(book, word):
    return np.bitwise_count(book ^ word).sum(axis=1)


def _loop_uncoded_bsc(cfg, alpha):
    n, streams = cfg.blocklength, mc._stream(cfg.seed, 0)

    def one(t):
        rng = streams(t + 1)
        rng.random(n)
        return float(np.count_nonzero(rng.random(n) < alpha)) / n

    return mc._report(np.array([one(t) for t in range(cfg.trials)]), cfg)


def _loop_uncoded_gaussian(cfg, sys, gamma):
    n, streams = cfg.blocklength, mc._stream(cfg.seed, 0)
    scale = math.sqrt(sys.power / sys.sigma2)
    mmse_gain = math.sqrt(gamma) * scale * sys.sigma2 / (1.0 + sys.power * gamma)

    def one(t):
        rng = streams(t + 1)
        v = rng.standard_normal(n) * math.sqrt(sys.sigma2)
        y = math.sqrt(gamma) * scale * v + rng.standard_normal(n)
        return float(np.mean((v - mmse_gain * y) ** 2))

    return mc._report(np.array([one(t) for t in range(cfg.trials)]), cfg)


def _loop_random_quantizer(cfg, rate):
    n = cfg.blocklength
    codebook = _loop_source_codebook(cfg.seed, mc._codebook_size(rate, n), n)
    streams = mc._stream(cfg.seed, 1)

    def one(t):
        source = mc._pack(streams(t + 1).random(n) < 0.5)
        return float(_loop_distances(codebook, source).min()) / n

    return mc._report(np.array([one(t) for t in range(cfg.trials)]), cfg)


def _loop_msvq(cfg, r2, r1):
    n = cfg.blocklength
    d2_target = specfn.bss_distortion_rate(r2)
    d1_target = specfn.bss_distortion_rate(r1 + r2)
    lam = 0.0 if 1.0 - 2.0 * d1_target <= 0.0 else (d2_target - d1_target) / (1.0 - 2.0 * d1_target)
    base_book = _loop_source_codebook(cfg.seed, mc._codebook_size(r2, n), n)
    refine_book = _loop_codebook(mc._stream(cfg.seed, 1)(0), mc._codebook_size(r1, n), n, lam)
    streams = mc._stream(cfg.seed, 2)

    def one(t):
        source = mc._pack(streams(t + 1).random(n) < 0.5)
        base_dist = _loop_distances(base_book, source)
        idx = int(base_dist.argmin())
        residue = source ^ base_book[idx]
        return float(base_dist[idx]) / n, float(_loop_distances(refine_book, residue).min()) / n

    pairs = [one(t) for t in range(cfg.trials)]
    return (mc._report(np.array([p[0] for p in pairs]), cfg),
            mc._report(np.array([p[1] for p in pairs]), cfg))


def _loop_unique_in_ball(distances, radius_count):
    inside = np.flatnonzero(distances <= radius_count)
    return int(inside[0]) if len(inside) == 1 else -1


def _loop_superposition(cfg, ch, beta, rates):
    """The reports and the ball-failure counts."""
    m = cfg.blocklength
    size_u = mc._codebook_size(rates.r2, m)
    size_q = mc._codebook_size(rates.r1, m)
    book_q = _loop_codebook(mc._stream(cfg.seed, 1)(0), size_q, m, beta)
    messages, base_books = mc._stream(cfg.seed, 2), mc._stream(cfg.seed, 3)
    radius_bad = int(math.floor(
        (specfn.binary_convolve(ch.alpha2, beta) + mc.RADIUS_SLACK_BASE) * m + 1e-9))
    radius_good = int(math.floor(
        (specfn.binary_convolve(ch.alpha1, beta) + mc.RADIUS_SLACK_GOOD) * m + 1e-9))
    failures = {"bad_u": 0, "good_u": 0, "good_q_tie": 0}

    def one(t):
        rng = messages(t + 1)
        book_u = _loop_codebook(base_books(t + 1), size_u, m, 0.5)
        w1 = int(rng.integers(size_q))
        w2 = int(rng.integers(size_u))
        x = book_q[w1] ^ book_u[w2]
        z_good = x ^ mc._pack(rng.random(m) < ch.alpha1)
        z_bad = x ^ mc._pack(rng.random(m) < ch.alpha2)
        if size_u == 1:
            err_bad = 0.0
        else:
            got = _loop_unique_in_ball(_loop_distances(book_u, z_bad), radius_bad)
            failures["bad_u"] += got < 0
            err_bad = 0.0 if got == w2 else 1.0
        if size_u == 1:
            w2_hat = 0
        else:
            w2_hat = _loop_unique_in_ball(_loop_distances(book_u, z_good), radius_good)
            failures["good_u"] += w2_hat < 0
        if w2_hat < 0:
            err_good = 1.0
        elif size_q == 1:
            err_good = 0.0 if w2_hat == w2 else 1.0
        else:
            dist_q = _loop_distances(book_q, z_good ^ book_u[w2_hat])
            nearest = np.flatnonzero(dist_q == dist_q.min())
            if len(nearest) != 1:
                failures["good_q_tie"] += 1
                err_good = 1.0
            else:
                err_good = 0.0 if (int(nearest[0]) == w1 and w2_hat == w2) else 1.0
        return err_good, err_bad

    pairs = [one(t) for t in range(cfg.trials)]
    reports = (mc._report(np.array([p[0] for p in pairs]), cfg),
               mc._report(np.array([p[1] for p in pairs]), cfg))
    return reports, failures


STEP = 8  # trials per chunk in the oracle tests: counts straddle one and two chunks
TRIAL_COUNTS = [1, STEP - 1, STEP, STEP + 1, 2 * STEP + 1]
EDGE_PROBABILITIES = [0.0, 1e-300, 0.1, 0.5, 1.0 - 2.0**-53, 1.0]


def _chunk_of(monkeypatch, per_trial_bytes):
    """Make the chunks STEP trials of per_trial_bytes each."""
    monkeypatch.setattr(mc, "_CHUNK_BYTES", STEP * per_trial_bytes)


class TestChunkedMatchesLoop:
    @pytest.mark.parametrize("p", EDGE_PROBABILITIES)
    def test_raw_word_bernoulli(self, p):
        key = np.array([5, 6], dtype=np.uint64)
        raw = np.random.Philox(key=key).random_raw(4096)
        doubles = np.random.Generator(np.random.Philox(key=key)).random(4096)
        assert np.array_equal(mc._bernoulli(raw, p), doubles < p)

    def test_raw_word_bernoulli_at_a_drawn_double(self):
        key = np.array([5, 6], dtype=np.uint64)
        raw = np.random.Philox(key=key).random_raw(64)
        doubles = np.random.Generator(np.random.Philox(key=key)).random(64)
        # below 1/2 an ulp is under 2^-53, so p * 2^53 one ulp above a draw is
        # not an integer and only rounding it up keeps that draw below p
        u = doubles[doubles < 0.5][0]
        for p in (u, np.nextafter(u, 1.0)):
            assert np.array_equal(mc._bernoulli(raw, float(p)), doubles < p)

    @pytest.mark.parametrize("p", EDGE_PROBABILITIES)
    def test_codebook_draw(self, p):
        book = mc._draw_codebook(np.random.Generator(np.random.Philox(key=[3, 4])), 40, 100, p)
        oracle = _loop_codebook(np.random.Generator(np.random.Philox(key=[3, 4])), 40, 100, p)
        assert np.array_equal(book, oracle)

    @pytest.mark.parametrize("n", [1, 63, 65, 100])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    def test_uncoded_bsc(self, n, trials, monkeypatch):
        _chunk_of(monkeypatch, 8 * n)
        cfg = TrialConfig(n, trials, 31)
        for alpha in EDGE_PROBABILITIES:
            assert mc.simulate_uncoded_bsc(cfg, alpha) == _loop_uncoded_bsc(cfg, alpha)

    @pytest.mark.parametrize("n", [1, 63, 65, 100])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    def test_uncoded_gaussian(self, n, trials, monkeypatch):
        _chunk_of(monkeypatch, 8 * n)
        cfg = TrialConfig(n, trials, 32)
        sys_ = RayleighSystem(0.7, 3.0, 1.5)
        gammas = [0.0, 0.75, 1.5, 3.0]
        assert mc.simulate_uncoded_gaussian(cfg, sys_, gammas) == [
            _loop_uncoded_gaussian(cfg, sys_, g) for g in gammas
        ]

    def test_uncoded_gaussian_at_the_default_chunk(self):
        # 1000 symbols: 32 trials per chunk
        cfg = TrialConfig(1000, 33, 33)
        sys_ = RayleighSystem(1.0, 1.0, 1.0)
        assert mc.simulate_uncoded_gaussian(cfg, sys_, [0.5, 2.0]) == [
            _loop_uncoded_gaussian(cfg, sys_, g) for g in (0.5, 2.0)
        ]

    @pytest.mark.parametrize(
        "n, rate", [(1, 0.5), (8, 1.0), (12, 0.5), (63, 0.1), (65, 0.1), (100, 0.05)]
    )
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    def test_random_quantizer(self, n, rate, trials, monkeypatch):
        size = min(mc._codebook_size(rate, n), 2**n)
        _chunk_of(monkeypatch, max(8 * n, 8 * size * -(-n // 64)))
        cfg = TrialConfig(n, trials, 34)
        assert mc.simulate_random_quantizer(cfg, rate) == _loop_random_quantizer(cfg, rate)

    def test_random_quantizer_alone_in_its_chunk(self):
        # 2^16 codewords of 32 bits: 512 KiB per trial, above the chunk bound
        cfg = TrialConfig(32, 3, 35)
        assert [len(c) for c in mc._chunks(3, 8 * 2**16)] == [1, 1, 1]
        assert mc.simulate_random_quantizer(cfg, 0.5) == _loop_random_quantizer(cfg, 0.5)

    @pytest.mark.parametrize("n, r2, r1", [(1, 0.5, 0.5), (16, 0.5, 0.25), (63, 0.1, 0.05),
                                           (65, 0.1, 0.05), (100, 0.05, 0.03), (16, 0.5, 0.0)])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    def test_msvq(self, n, r2, r1, trials, monkeypatch):
        words = -(-n // 64)
        size2 = min(mc._codebook_size(r2, n), 2**n)
        size1 = mc._codebook_size(r1, n)
        _chunk_of(monkeypatch, max(8 * n, 8 * size2 * words, 8 * size1 * words))
        cfg = TrialConfig(n, trials, 36)
        assert mc.simulate_msvq(cfg, r2, r1) == _loop_msvq(cfg, r2, r1)

    @pytest.mark.parametrize("m", [1, 63, 65, 100])
    @pytest.mark.parametrize("beta", [0.0, 1e-300, 0.1, 0.5])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    def test_superposition(self, m, beta, trials, monkeypatch, caplog):
        ch = CompositeBsc(0.25, 0.35, 0.5, 2.0)  # up to 11 base codewords at m = 100
        boundary = bsc_bc_rate_region(ch, beta)
        for rates in (RatePair(0.8 * boundary.r1, 0.8 * boundary.r2),
                      RatePair(0.8 * boundary.r1, 0.0), RatePair(0.0, 0.8 * boundary.r2)):
            size_u = mc._codebook_size(rates.r2, m)
            _chunk_of(monkeypatch, 8 * m * max(size_u, 2))
            cfg = TrialConfig(m, trials, 37)
            caplog.clear()
            with caplog.at_level("DEBUG", logger=mc.log.name):
                got = mc.simulate_superposition_bc(cfg, ch, beta, rates)
            want, failures = _loop_superposition(cfg, ch, beta, rates)
            assert got == want
            logged = [r.args[2] for r in caplog.records]
            expected = {k: v / trials for k, v in failures.items()}
            assert logged == ([expected] if any(failures.values()) else [])
