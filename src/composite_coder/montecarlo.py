"""Desk-scale Monte Carlo validation of the analytic scheme evaluations.

Reproducibility design: every random draw comes from a Philox counter-based
generator keyed by (seed, trial index, stream id).  Trials therefore share
no generator state, results do not depend on execution order, and re-running
with the same TrialConfig reproduces the same numbers exactly.

Binary words and codebooks are held bit-packed, 64 symbols to a uint64 word
(little-endian bit order, zero-padded), so a Hamming distance is a popcount
of an XOR.  Codebook memory is the packed size: codebooks are drawn and
packed in fixed blocks of rows, never as one float array of the whole book.

Trials run in chunks.  Only what must be per trial stays per trial:
re-keying the trial's Philox streams and drawing from them, in the order a
trial run alone draws, into the trial's row of a chunk buffer.  Packing,
XOR, distances, minima and means then run once per chunk along the rows,
which gives each trial the same numbers, and each report the same bits, as
a loop of single trials: a trial's draws depend only on its key, so any
grouping of trials gives the same bits.  A chunk holds as many trials as
keep what the chunk holds for each (its raw words, its distances to a
shared codebook, or the packed words of a codebook drawn per trial) within
_CHUNK_BYTES (256 KiB, 2^15 float64); a trial larger than that runs in a
chunk of its own.  A codebook drawn per trial counts its packed size, so a
trial whose raw draws exceed the budget still shares its chunk (387
superposition base codewords at m = 256: 12 KiB packed, 774 KiB raw): its
raw words are drawn in blocks of at most _CHUNK_BYTES, each packed before
the next is drawn.  The superposition code's cloud layer is decoded for
every trial of a chunk in one nearest-codeword search, one word column at
a time, in sub-blocks of trials whose temporaries stay within _CHUNK_BYTES.
Bernoulli bits come from raw Philox words without forming doubles: numpy's
double is (raw >> 11) * 2^-53, so for p < 1, ``random() < p`` holds exactly
when raw < ceil(p * 2^53) << 11, and every double lies below p >= 1.

Budgets: a codebook may hold at most CODEBOOK_CAP packed uint64 words
(128 MiB), an uncoded trial at most BLOCKLENGTH_CAP symbols, and a run at
most TRIAL_WORK_CAP bytes of per-trial work (its trials times the bytes
each trial draws or scans, at least _TRIAL_FLOOR_BYTES); larger requests
raise BudgetError before anything is allocated.

Finite-blocklength caveat: the codebook constructions follow the random
coding recipes (Bernoulli codebooks, superposition by XOR), but typicality
decoding is replaced by within-radius and nearest-codeword rules.  At desk
blocklengths these only support trend and one-sided assertions, which is
all the accompanying tests claim.  Decoding ties, and multiple candidates
inside a decoding ball, are conservatively counted as errors.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import specfn
from .channels import CompositeBsc, RatePair, RayleighSystem
from .specfn import BudgetError

__all__ = [
    "BudgetError",
    "TrialConfig",
    "TrialReport",
    "CODEBOOK_CAP",
    "BLOCKLENGTH_CAP",
    "TRIAL_WORK_CAP",
    "simulate_uncoded_bsc",
    "simulate_uncoded_gaussian",
    "simulate_random_quantizer",
    "simulate_msvq",
    "simulate_superposition_bc",
]

log = logging.getLogger(__name__)

CODEBOOK_CAP = 2**24  # packed uint64 words per codebook
BLOCKLENGTH_CAP = 2**24  # symbols per uncoded trial
TRIAL_WORK_CAP = 2**37  # trials x per-trial bytes per run: 2^24 trials of at most 8 KiB
# what a trial costs whatever its size: re-keying its streams takes about
# 8 us, as long as drawing 1000 symbols (8 KiB of raw words)
_TRIAL_FLOOR_BYTES = 2**13

# decoding-ball slack added to the nominal noise levels; keeps the true
# codeword inside its ball often enough at small blocklengths while staying
# below the rate margin that unique-in-ball decoding can absorb
RADIUS_SLACK_BASE = 0.004
RADIUS_SLACK_GOOD = 0.03

_MASK64 = 2**64 - 1

# raw words per codebook block: bounds the temporaries of a codebook draw
# to 2 MiB whatever its size
_BLOCK_DRAWS = 2**18

# bytes of the largest temporary of a chunk of trials (2^15 float64): keeps
# a chunk cache-sized and off the peak resident size, which a 256-trial
# chunk of 1000-symbol Gaussian words raised by 15 MiB
_CHUNK_BYTES = 2**18


@dataclass(frozen=True)
class TrialConfig:
    """Blocklength, trial count and base seed of one experiment."""

    blocklength: int
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.blocklength < 1:
            raise ValueError(f"blocklength must be >= 1, got {self.blocklength}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class TrialReport:
    """Empirical mean with a 95% normal-approximation half-width."""

    mean: float
    half_width_95: float
    trials: int
    seed: int


def _stream(seed: int, stream: int) -> Callable[[int], np.random.Generator]:
    """Generators of one stream: ``at(trial)`` is keyed (seed, trial, stream).

    One Philox is re-keyed per trial instead of built anew: the state set
    here (the key, counter 0, empty buffer) is exactly the state
    ``np.random.Philox(key=...)`` starts in, so the draws are identical.
    ``at`` returns the same generator object each time; finish drawing from
    one trial before asking for the next.  The key is passed as a uint64
    array: a list holding a seed of 2^63 or more converts through float64.
    """
    bitgen = np.random.Philox(key=np.array([seed & _MASK64, stream], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]

    def at(trial: int) -> np.random.Generator:
        key[1] = ((trial << 32) | stream) & _MASK64
        bitgen.state = state
        return rng

    return at


def _pack(bits: np.ndarray) -> np.ndarray:
    """Bool words along the last axis as little-endian uint64 words."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros(bits.shape[:-1] + (-(-bits.shape[-1] // 64) * 8,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view("<u8")


def _distances(book: np.ndarray, word: np.ndarray) -> np.ndarray:
    """Hamming distances from the packed codewords (rows) of a book to packed words.

    A (size, W) book against a (W,) word gives (size,) distances, and
    against (k, W) words a (k, size) matrix; a (k, size, W) stack of books
    against (k, W) words gives each word's distances to its own book.
    """
    return np.bitwise_count(book ^ word[..., None, :]).sum(axis=-1)


def _bernoulli(raw: np.ndarray, p: float) -> np.ndarray:
    """``random() < p`` of the doubles Philox makes from these raw words (0 <= p)."""
    if p >= 1.0:
        return np.ones(raw.shape, dtype=bool)
    return raw < np.uint64(math.ceil(p * 2.0**53) << 11)


def _draw_codebook(rng: np.random.Generator, size: int, n: int, p: float) -> np.ndarray:
    """size Bernoulli(p) words of n bits, packed.

    Blocks of rows are drawn in turn from one generator; the raw words come
    row-major, so the bits equal those of a single (size, n) ``random``
    draw.  Column order makes the distance kernel sum contiguous word columns.
    """
    book = np.empty((size, -(-n // 64)), dtype=np.uint64, order="F")
    rows = max(1, _BLOCK_DRAWS // n)
    for lo in range(0, size, rows):
        hi = min(size, lo + rows)
        book[lo:hi] = _pack(_bernoulli(rng.bit_generator.random_raw((hi - lo, n)), p))
    return book


def _chunks(trials: int, per_trial_bytes: int) -> Iterator[range]:
    """Consecutive trial ranges whose temporaries of per_trial_bytes each stay
    within _CHUNK_BYTES; a larger trial gets a range of its own."""
    step = max(1, _CHUNK_BYTES // per_trial_bytes)
    return (range(lo, min(trials, lo + step)) for lo in range(0, trials, step))


def _check_work(trials: int, per_trial_bytes: int) -> None:
    if trials * max(per_trial_bytes, _TRIAL_FLOOR_BYTES) > TRIAL_WORK_CAP:
        raise BudgetError(f"{trials} trials of {per_trial_bytes} bytes each exceed "
                          f"the work cap of {TRIAL_WORK_CAP} bytes")


def _fair_words(streams: Callable[[int], np.random.Generator], chunk: range,
                rows: int, n: int) -> np.ndarray:
    """Each trial's first rows words of n Bernoulli(1/2) bits from its own
    stream, packed: shape (len(chunk), rows, words).

    The raw words are drawn in blocks of at most _CHUNK_BYTES, each packed
    into the result before the next is drawn: whole trials to a block while
    one fits, else one trial's rows in turn.  A chunk sized by its packed
    words therefore never holds the raw draws of more than one block.
    """
    out = np.empty((len(chunk), rows, -(-n // 64)), dtype=np.uint64)
    block_rows = max(1, _CHUNK_BYTES // (8 * n))
    if rows > block_rows:
        for book, t in zip(out, chunk):
            bitgen = streams(t + 1).bit_generator
            for lo in range(0, rows, block_rows):
                hi = min(rows, lo + block_rows)
                book[lo:hi] = _pack(_bernoulli(bitgen.random_raw((hi - lo, n)), 0.5))
        return out
    step = block_rows // rows
    for lo in range(0, len(chunk), step):
        hi = min(len(chunk), lo + step)
        raw = np.empty((hi - lo, rows, n), dtype=np.uint64)
        for block, t in zip(raw, chunk[lo:hi]):
            block[...] = streams(t + 1).bit_generator.random_raw((rows, n))
        out[lo:hi] = _pack(_bernoulli(raw, 0.5))
    return out


def _nearest(book: np.ndarray, words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per packed word of n bits (rows of words), the index of its first
    nearest codeword in book, and whether another codeword ties with it.

    The distances are summed one word column at a time (XOR, popcount, add)
    over sub-blocks of the words, so that each temporary stays within
    _CHUNK_BYTES, or within one column of a book larger than that.
    """
    size = len(book)
    # a distance is at most n, and the codebook cap keeps n below 2^30
    dtype = np.uint16 if n < 2**16 else np.uint32
    step = max(1, _CHUNK_BYTES // (8 * size))
    index = np.empty(len(words), dtype=np.intp)
    ties = np.empty(len(words), dtype=bool)
    for lo in range(0, len(words), step):
        block = words[lo:lo + step]
        acc = np.bitwise_count(book[:, 0] ^ block[:, 0, None]).astype(dtype)
        for col in range(1, book.shape[1]):
            acc += np.bitwise_count(book[:, col] ^ block[:, col, None])
        at_min = acc == acc.min(axis=1)[:, None]
        index[lo:lo + len(block)] = at_min.argmax(axis=1)
        ties[lo:lo + len(block)] = np.count_nonzero(at_min, axis=1) > 1
    return index, ties


def _report(values: np.ndarray, cfg: TrialConfig) -> TrialReport:
    """Mean and half-width, taken on the values scaled by 2^-e, e the exponent
    of max |v|, so no square overflows; scaling back by 2^e is exact (sqrt
    halves an even exponent), so the bits are those of the unscaled
    statistics wherever those neither over- nor underflow."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        e = math.frexp(float(np.abs(values).max()))[1]
        scaled = np.ldexp(values, -e)
        mean = math.ldexp(float(scaled.mean()), e)
        if len(values) > 1:
            std = float(np.ldexp(scaled.std(ddof=1), e))
            half = 1.96 * std / math.sqrt(len(values))
        else:
            half = 0.0
    if not (math.isfinite(mean) and math.isfinite(half)):
        raise ArithmeticError(
            f"trial statistics leave the float range: mean {mean}, half-width {half}"
        )
    return TrialReport(mean=mean, half_width_95=half, trials=cfg.trials, seed=cfg.seed)


def _uncoded_blocklength(cfg: TrialConfig) -> int:
    if cfg.blocklength > BLOCKLENGTH_CAP:
        raise BudgetError(
            f"blocklength {cfg.blocklength} exceeds the uncoded cap of {BLOCKLENGTH_CAP}"
        )
    return cfg.blocklength


def simulate_uncoded_bsc(cfg: TrialConfig, alpha: float) -> TrialReport:
    """Hamming distortion of uncoded Bernoulli(1/2) words through a BSC."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"crossover must lie in [0, 1], got {alpha}")
    n = _uncoded_blocklength(cfg)
    _check_work(cfg.trials, 8 * n)
    streams = _stream(cfg.seed, 0)
    values = np.empty(cfg.trials)
    for chunk in _chunks(cfg.trials, 8 * n):
        raw = np.empty((len(chunk), n), dtype=np.uint64)
        for row, t in zip(raw, chunk):
            bitgen = streams(t + 1).bit_generator
            # skip the n-word source word without making it (Philox makes
            # words 4 to a block): received ^ source is the noise word alone
            bitgen.advance(n // 4)
            bitgen.random_raw(n % 4)
            row[:] = bitgen.random_raw(n)
        values[chunk.start:chunk.stop] = np.count_nonzero(_bernoulli(raw, alpha), axis=1) / n
    return _report(values, cfg)


def simulate_uncoded_gaussian(
    cfg: TrialConfig, sys: RayleighSystem, gammas: Sequence[float]
) -> list[TrialReport]:
    """MSE of linear transmission plus linear-MMSE estimation, one report per gain.

    X = sqrt(power/sigma2) * V over Y = sqrt(gamma) * X + N with unit noise;
    the analytic target is sigma2 / (1 + power * gamma).  Every gain sees the
    same source and noise words of a trial, drawn once.
    """
    for gamma in gammas:
        if gamma < 0.0:
            raise ValueError(f"channel gain must be nonnegative, got {gamma}")
    n = _uncoded_blocklength(cfg)
    _check_work(cfg.trials, 16 * n)
    scale = math.sqrt(sys.power / sys.sigma2)
    # per gain: the channel's amplitude on V and the LMMSE coefficient
    gains = [
        (math.sqrt(gamma) * scale,
         math.sqrt(gamma) * scale * sys.sigma2 / (1.0 + sys.power * gamma))
        for gamma in gammas
    ]
    streams = _stream(cfg.seed, 0)
    values = np.empty((len(gains), cfg.trials))
    for chunk in _chunks(cfg.trials, 8 * n):
        v = np.empty((len(chunk), n))
        z = np.empty((len(chunk), n))
        for v_row, z_row, t in zip(v, z, chunk):
            rng = streams(t + 1)
            rng.standard_normal(out=v_row)
            rng.standard_normal(out=z_row)
        v *= math.sqrt(sys.sigma2)
        # a squared error past the float range is refused by _report
        with np.errstate(over="ignore", invalid="ignore"):
            for row, (amplitude, mmse_gain) in zip(values, gains):
                y = amplitude * v + z
                row[chunk.start:chunk.stop] = np.mean((v - mmse_gain * y) ** 2, axis=1)
    return [_report(row, cfg) for row in values]


def _codebook_size(rate: float, n: int) -> int:
    """Entries of a rate-``rate`` codebook of n-bit words, within CODEBOOK_CAP words."""
    if rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    words = -(-n // 64)
    # 2^(rate*n) is only formed once it is known not to overflow a float
    size = math.ceil(2.0 ** (rate * n)) if rate * n <= math.log2(CODEBOOK_CAP) else math.inf
    if size * words > CODEBOOK_CAP:
        raise BudgetError(
            f"codebook of 2^({rate}*{n}) entries of {words} uint64 words exceeds "
            f"the cap of {CODEBOOK_CAP} words"
        )
    return size


def _source_codebook(seed: int, size: int, n: int) -> np.ndarray:
    """Bernoulli(1/2) codebook of stream 0, or all 2^n words once size reaches 2^n."""
    if size >= 2**n:
        # n <= log2(CODEBOOK_CAP) here, so every word fits in one uint64
        return np.arange(2**n, dtype=np.uint64)[:, None]
    return _draw_codebook(_stream(seed, 0)(0), size, n, 0.5)


def simulate_random_quantizer(cfg: TrialConfig, rate: float) -> TrialReport:
    """Nearest-codeword quantization of Bernoulli(1/2) words.

    The codebook holds ceil(2^(n*rate)) Bernoulli(1/2) words, except that
    rates at or above one bit per symbol enumerate all 2^n words (every word
    is then a codeword, matching the lossless regime exactly).
    """
    n = cfg.blocklength
    size = _codebook_size(rate, n)
    _check_work(cfg.trials, 8 * (n + size * -(-n // 64)))
    codebook = _source_codebook(cfg.seed, size, n)
    streams = _stream(cfg.seed, 1)
    values = np.empty(cfg.trials)
    for chunk in _chunks(cfg.trials, max(8 * n, codebook.nbytes)):
        sources = _fair_words(streams, chunk, 1, n)[:, 0]
        values[chunk.start:chunk.stop] = _distances(codebook, sources).min(axis=1) / n
    return _report(values, cfg)


def simulate_msvq(cfg: TrialConfig, r2: float, r1: float) -> tuple[TrialReport, TrialReport]:
    """Two-stage additive-refinement vector quantizer.

    Stage 2 quantizes the source with a Bernoulli(1/2) codebook at rate r2;
    stage 1 quantizes the stage-2 residue with a Bernoulli(lambda) codebook
    at rate r1, where lambda = (D(r2) - D(r1+r2)) / (1 - 2 D(r1+r2)) is the
    refinement density of the ideal two-layer test channel.  Returns
    (base report, refined report) of Hamming distortions.
    """
    n = cfg.blocklength
    if (r1 + r2) * n > math.log2(CODEBOOK_CAP):
        raise BudgetError(f"combined codebooks 2^(({r1}+{r2})*{n}) exceed {CODEBOOK_CAP}")
    size2 = _codebook_size(r2, n)
    size1 = _codebook_size(r1, n)
    _check_work(cfg.trials, 8 * (n + (size2 + size1) * -(-n // 64)))
    d2_target = specfn.bss_distortion_rate(r2)
    d1_target = specfn.bss_distortion_rate(r1 + r2)
    if 1.0 - 2.0 * d1_target <= 0.0:
        lam = 0.0
    else:
        lam = (d2_target - d1_target) / (1.0 - 2.0 * d1_target)
    base_book = _source_codebook(cfg.seed, size2, n)
    refine_book = _draw_codebook(_stream(cfg.seed, 1)(0), size1, n, lam)
    streams = _stream(cfg.seed, 2)
    base = np.empty(cfg.trials)
    refined = np.empty(cfg.trials)
    for chunk in _chunks(cfg.trials, max(8 * n, base_book.nbytes, refine_book.nbytes)):
        sources = _fair_words(streams, chunk, 1, n)[:, 0]
        base_dist = _distances(base_book, sources)
        idx = base_dist.argmin(axis=1)  # the first minimum, as for one trial
        base[chunk.start:chunk.stop] = base_dist[np.arange(len(chunk)), idx] / n
        residues = sources ^ base_book[idx]
        refined[chunk.start:chunk.stop] = _distances(refine_book, residues).min(axis=1) / n
    return _report(base, cfg), _report(refined, cfg)


def _unique_in_ball(distances: np.ndarray, radius_count: int) -> np.ndarray:
    """Per row, the index of the unique codeword within the ball, or -1 (none/ambiguous)."""
    inside = distances <= radius_count
    return np.where(np.count_nonzero(inside, axis=-1) == 1, inside.argmax(axis=-1), -1)


def simulate_superposition_bc(
    cfg: TrialConfig,
    ch: CompositeBsc,
    beta: float,
    rates: RatePair,
) -> tuple[TrialReport, TrialReport]:
    """Block-error rates of the two-layer superposition code, per state.

    Codebooks: base layer U of ceil(2^(m*r2)) Bernoulli(1/2) words, cloud
    layer Q of ceil(2^(m*r1)) Bernoulli(beta) words; the channel input is
    Q[w1] XOR U[w2].  The base-layer codebook is redrawn every trial: at
    desk rates it holds only a handful of words, so a single draw would pin
    the error rate to the luck of one codeword pair instead of the ensemble
    average the error-trend assertions are about.  The cloud codebook is
    drawn once per run; its many codewords self-average.

    Decoding (ties and ambiguities count as errors; a single-codeword layer
    decodes trivially since it carries no information):

    - bad state: w2 is the unique U-index within fractional radius
      (alpha2 conv beta) + RADIUS_SLACK_BASE of the output;
    - good state: w2 as above at radius (alpha1 conv beta) + RADIUS_SLACK_GOOD,
      then the U word is stripped and w1 is the nearest Q-codeword.  Nearest
      rather than within-radius decoding is used for the cloud layer because
      a plain Hamming ball cannot support the cloud rate, even
      asymptotically; minimum distance is the ML rule for the stripped
      channel.

    The fraction of trials where no or multiple candidates fell inside a
    decoding ball is logged at debug level for diagnostics.
    """
    if not 0.0 <= beta <= 0.5:
        raise ValueError(f"beta must lie in [0, 1/2], got {beta}")
    m = cfg.blocklength
    size_u = _codebook_size(rates.r2, m)
    size_q = _codebook_size(rates.r1, m)
    # per trial: the base codebook's raw words, the noise words and a cloud scan
    _check_work(cfg.trials, 8 * ((size_u + 2) * m + size_q * -(-m // 64)))
    book_q = _draw_codebook(_stream(cfg.seed, 1)(0), size_q, m, beta)
    messages = _stream(cfg.seed, 2)
    base_books = _stream(cfg.seed, 3)

    radius_bad = int(math.floor((specfn.binary_convolve(ch.alpha2, beta) + RADIUS_SLACK_BASE) * m + 1e-9))
    radius_good = int(math.floor((specfn.binary_convolve(ch.alpha1, beta) + RADIUS_SLACK_GOOD) * m + 1e-9))

    ball_failures = {"bad_u": 0, "good_u": 0, "good_q_tie": 0}
    err_good = np.empty(cfg.trials)
    err_bad = np.empty(cfg.trials)
    # per trial, what a chunk keeps: the packed base codebook and the 2m raw
    # words the two noise words are made from
    for chunk in _chunks(cfg.trials, 8 * (size_u * -(-m // 64) + 2 * m)):
        k = len(chunk)
        w1 = np.empty(k, dtype=np.intp)
        w2 = np.empty(k, dtype=np.intp)
        noise = np.empty((k, 2 * m), dtype=np.uint64)
        for i, t in enumerate(chunk):
            rng = messages(t + 1)
            w1[i] = rng.integers(size_q)
            w2[i] = rng.integers(size_u)
            noise[i] = rng.bit_generator.random_raw(2 * m)  # good-state then bad-state noise
        books_u = _fair_words(base_books, chunk, size_u, m)
        rows = np.arange(k)
        x = book_q[w1] ^ books_u[rows, w2]
        z_good = x ^ _pack(_bernoulli(noise[:, :m], ch.alpha1))
        z_bad = x ^ _pack(_bernoulli(noise[:, m:], ch.alpha2))

        # bad state: base layer only
        if size_u == 1:
            err_bad[chunk.start:chunk.stop] = 0.0
        else:
            got = _unique_in_ball(_distances(books_u, z_bad), radius_bad)
            ball_failures["bad_u"] += int(np.count_nonzero(got < 0))
            err_bad[chunk.start:chunk.stop] = got != w2

        # good state: base layer, then stripped cloud layer
        if size_u == 1:
            w2_hat = np.zeros(k, dtype=np.intp)
        else:
            w2_hat = _unique_in_ball(_distances(books_u, z_good), radius_good)
            ball_failures["good_u"] += int(np.count_nonzero(w2_hat < 0))
        wrong = w2_hat != w2  # also every failed base decode
        if size_q > 1:
            # the cloud layer of the trials whose base decode found a word,
            # all of them in one search
            live = np.flatnonzero(w2_hat >= 0)
            nearest, ties = _nearest(book_q, z_good[live] ^ books_u[live, w2_hat[live]], m)
            ball_failures["good_q_tie"] += int(np.count_nonzero(ties))
            wrong[live] |= ties | (nearest != w1[live])
        err_good[chunk.start:chunk.stop] = wrong

    if any(ball_failures.values()):
        log.debug(
            "superposition decode diagnostics (m=%d, trials=%d): %s",
            m,
            cfg.trials,
            {name: v / cfg.trials for name, v in ball_failures.items()},
        )
    return _report(err_good, cfg), _report(err_bad, cfg)
