"""Identification codebooks without feedback.

Working in the square-root intensity domain turns the output-law separation
required by an error budget into a Euclidean minimum distance 2r between
codewords, while the power constraints confine all codewords to a ball of
radius l.  This module builds codebooks by greedy rejection packing inside
that ball, bounds their size by the sphere-packing volume ratio, and
estimates the actual identification errors of a per-slot deviation decoder
by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import (ChannelParams, PowerConstraints, as_counts, effective_intensity,
                      validate_power)
from .measures import min_distance_radius
from .results import SimResult, sender_map, tally
from .seeding import spawn

# Above this codebook size the ordered Type II pair matrix is subsampled.
FULL_PAIR_LIMIT = 64
PAIR_SAMPLE_FACTOR = 64
# Packing stops after this many times the codebook size of consecutive rejections.
STOP_REJECTIONS_PER_WORD = 200
# Cells (candidates x codewords x slots) in one packing screen's temporary:
# 512 KiB of float64.  Larger batches add resident memory, not speed.
_SCREEN_CELLS = 1 << 16


def memory_scaling(n: int, kappa: float) -> int:
    """Memory length floor(n^kappa) for block length n.

    Computed through exp/log, so values within 1e-9 of an integer are snapped
    before flooring (1024**0.3 evaluates to 7.999999999999998).
    """
    if n < 2:
        raise ValueError("block length must be at least 2")
    if not 0 <= kappa < 1:
        raise ValueError("memory exponent must lie in [0, 1)")
    value = 2.0 ** (kappa * math.log2(n))
    nearest = round(value)
    if abs(value - nearest) < 1e-9:
        value = nearest
    return int(math.floor(value))


def reparameterize(x, params: ChannelParams) -> np.ndarray:
    """Square-root intensity coordinates of a codeword (first n slots)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(effective_intensity(x, params)[: x.size])


def power_ball_radius(
    n: int,
    params: ChannelParams,
    constraints: PowerConstraints,
    memory: int,
) -> float:
    """Radius of the smallest ball containing every admissible reparametrized
    codeword, in sqrt-intensity units.

    The average and peak constraints give balls of squared radii
    n*(dark + avg*memory*T_s) and n*(dark + peak*memory*T_s); codewords must
    lie in both, so the binding one uses min(avg, peak).
    """
    if memory < 1:
        raise ValueError("memory must be at least 1 for the power-ball bound")
    rate = min(constraints.average, constraints.peak)
    return math.sqrt(n * params.dark_rate + n * rate * memory * params.slot_duration)


def packing_log_count_bound(n: int, ball_radius: float, packing_radius: float) -> float:
    """Sphere-packing ceiling on the codebook size, in bits: n * log2(2l/r)."""
    if not packing_radius > 0:
        raise ValueError("packing radius must be positive")
    if packing_radius > ball_radius:
        raise ValueError(f"packing radius {packing_radius} exceeds ball radius {ball_radius}")
    return n * math.log2(2.0 * ball_radius / packing_radius)


@dataclass
class DICodebook:
    """Codewords, their channel, and the threshold decision rule.

    ``packing_radius`` is half the guaranteed minimum sqrt-domain distance.
    ``threshold`` starts at +inf (accept everything); run
    :func:`calibrate_threshold` before measuring errors.
    """

    codewords: np.ndarray
    params: ChannelParams
    constraints: PowerConstraints
    packing_radius: float
    type1_budget: float
    type2_budget: float
    threshold: float = math.inf

    @property
    def num_codewords(self) -> int:
        return self.codewords.shape[0]

    @property
    def block_length(self) -> int:
        return self.codewords.shape[1]

    @cached_property
    def intensities(self) -> np.ndarray:
        """Per-codeword effective intensities, shape (N, n + memory)."""
        return np.stack([effective_intensity(x, self.params) for x in self.codewords])

    @cached_property
    def sqrt_codewords(self) -> np.ndarray:
        return np.sqrt(self.intensities[:, : self.block_length])


def validate_codebook(book: DICodebook) -> None:
    """Raise unless the codebook meets its structural invariants."""
    if book.num_codewords < 1:
        raise ValueError("codebook is empty")
    for i, x in enumerate(book.codewords):
        if not validate_power(x, book.constraints):
            raise ValueError(f"codeword {i} violates the power constraints")
    s = book.sqrt_codewords
    needed = 2.0 * book.packing_radius
    for i in range(book.num_codewords):
        d = np.linalg.norm(s[i + 1 :] - s[i], axis=1)
        if d.size and d.min() < needed - 1e-9:
            j = i + 1 + int(d.argmin())
            raise ValueError(
                f"codewords {i} and {j} are {d.min():.6f} apart, below 2r={needed:.6f}"
            )


def _nearest_sq_distances(pool: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Squared distance from each batch row to its nearest pool row.

    Summed as ``np.linalg.norm(pool - s, axis=1)`` sums, so the square root of
    an entry is that norm's minimum, bit for bit (sqrt is monotone and
    correctly rounded).
    """
    diff = pool[None, :, :] - batch[:, None, :]
    np.square(diff, out=diff)
    return np.add.reduce(diff, axis=2).min(axis=1)


def construct_codebook(
    n: int,
    params: ChannelParams,
    constraints: PowerConstraints,
    type1_budget: float,
    type2_budget: float,
    max_codewords: int,
    levels: list[float] | None = None,
    separation_scale: float = 1.0,
    seed: int = 0,
) -> DICodebook:
    """Greedy rejection packing of grid codewords at sqrt-domain distance 2r.

    ``levels`` is the per-slot release-rate alphabet (default 0, peak/2,
    peak).  Every candidate is a random permutation of the same near-equal
    level multiset, so all codewords share one own-statistic scale and a
    single decoder threshold calibrates uniformly.  Candidates are rescaled
    onto the average-power budget when it binds, and accepted when they keep
    the minimum pairwise distance.  ``separation_scale`` (at least 1)
    multiplies that distance; values above 1 trade codebook size for decoder
    margin.  The first candidate has nothing to keep apart from, so a book
    holds at least one codeword however tight the budget.  Construction
    stops at ``max_codewords`` or after :data:`STOP_REJECTIONS_PER_WORD`
    times the current size of consecutive rejections.  Deterministic in
    ``seed``.
    """
    if n < 1:
        raise ValueError("block length must be positive")
    radius = min_distance_radius(type1_budget, type2_budget)
    needed = 2.0 * radius * separation_scale
    if levels is None:
        levels = (0.0, constraints.peak / 2.0, constraints.peak)
    levels = np.sort(np.asarray(levels, dtype=float))
    if np.any(levels < 0) or np.any(levels > constraints.peak):
        raise ValueError("level alphabet must lie in [0, peak]")
    if max_codewords < 1:
        raise ValueError("max_codewords must be at least 1")
    if not separation_scale >= 1:
        raise ValueError("separation_scale must be at least 1")
    counts = np.full(levels.size, n // levels.size)
    counts[: n % levels.size] += 1  # remainder on the lowest levels
    base = np.repeat(levels, counts)

    budget = n * constraints.average
    accepted: list[np.ndarray] = []
    # Accepted sqrt-codewords as the first len(accepted) rows; doubles when full.
    pool = np.empty((min(max_codewords, 64), n))
    rejections = 0
    candidate = 0
    while len(accepted) < max_codewords:
        k = len(accepted)
        # Candidates are drawn and screened in batches.  A batch can fill the
        # book or reach the rejection stop only at its last candidate, so the
        # candidates drawn are exactly those of a one-at-a-time loop.
        size = max(1, min(max_codewords - k, STOP_REJECTIONS_PER_WORD * k - rejections,
                          _SCREEN_CELLS // (max(k, 1) * n)))
        xs = []
        batch = np.empty((size, n))
        for j in range(size):
            x = spawn(seed, "codebook", candidate + j).permutation(base)
            total = x.sum()
            if total > budget:
                x = x * (budget / total)
            xs.append(x)
            batch[j] = reparameterize(x, params)
        candidate += size
        nearest = _nearest_sq_distances(pool[:k], batch) if k else np.full(size, np.inf)
        for x, s, d2 in zip(xs, batch, nearest):
            kk = len(accepted)
            if kk > k:  # also screen against codewords accepted in this batch
                d2 = min(d2, _nearest_sq_distances(pool[k:kk], s[None])[0])
            if math.sqrt(d2) < needed:
                rejections += 1
                continue
            if kk == pool.shape[0]:
                pool = np.concatenate([pool, np.empty_like(pool)])
            pool[kk] = s
            accepted.append(x)
            rejections = 0
        if rejections >= STOP_REJECTIONS_PER_WORD * len(accepted):
            break

    book = DICodebook(
        codewords=np.stack(accepted),
        params=params,
        constraints=constraints,
        packing_radius=radius,
        type1_budget=type1_budget,
        type2_budget=type2_budget,
    )
    validate_codebook(book)
    return book


def _statistics(outputs: np.ndarray, intensity: np.ndarray, n: int) -> np.ndarray:
    """Mean absolute deviation of the first n output slots from an intensity.

    The same sum-then-divide as ``.mean(axis=1)``, with one temporary.
    """
    diff = outputs[:, :n] - intensity[:n]
    np.abs(diff, out=diff)
    return np.add.reduce(diff, axis=1) / n


def decode_identify(y, index: int, book: DICodebook) -> bool:
    """Test "was codeword ``index`` sent?": accept iff the per-slot mean
    absolute deviation from its intensity is at most the threshold.  Counts
    must be nonnegative integers; integral floats are accepted."""
    if not 0 <= index < book.num_codewords:
        raise IndexError(f"message index {index} outside [0, {book.num_codewords})")
    y = as_counts(y)
    n = book.block_length
    if y.ndim != 1 or y.size != n + book.params.memory:
        raise ValueError(f"output length must be {n + book.params.memory}, got {y.size}")
    return bool(_statistics(y[None, :], book.intensities[index], n)[0] <= book.threshold)


def calibrate_threshold(
    book: DICodebook,
    trials: int,
    seed: int,
    target: float,
) -> float:
    """Pick the smallest threshold whose empirical Type I error meets the target.

    Samples ``trials`` outputs per codeword, then takes the smallest observed
    statistic at which every per-message rejection rate is at most ``target``.
    Calibrating to a fraction of the codebook's Type I budget leaves headroom
    for an independent verification run to confirm the budget with
    confidence.  Sets ``book.threshold`` and returns it.
    """
    if trials < 1000:
        raise ValueError("calibration needs at least 1000 trials")
    if not 0 <= target:
        raise ValueError("target error rate must be nonnegative")

    n = book.block_length
    intensities = book.intensities  # computed here, not once per thread
    stats = np.empty((book.num_codewords, trials))

    def sample(i):
        rng = spawn(seed, "calibrate", i)
        outputs = rng.poisson(intensities[i], size=(trials, n + book.params.memory))
        stats[i] = _statistics(outputs, intensities[i], n)

    sender_map(sample, range(book.num_codewords))

    # Per message the smallest observed value leaving at most
    # floor(target * trials) samples above it, then the max over messages.
    allowed = int(math.floor(target * trials))
    idx = max(0, trials - allowed - 1)
    book.threshold = float(np.partition(stats, idx, axis=1)[:, idx].max())
    return book.threshold


def _ordered_pair(k: int, count: int) -> tuple[int, int]:
    """The k-th ordered pair (i, j), i != j, in row-major order over count codewords."""
    i, r = divmod(k, count - 1)
    return i, r + (r >= i)


def estimate_errors(book: DICodebook, trials: int, seed: int) -> SimResult:
    """Monte Carlo Type I / Type II error estimates with Wilson intervals.

    Type I for message i is the rejection rate of decoder i on outputs of
    codeword i; Type II for an ordered pair (i, j) is the acceptance rate of
    decoder j on the same outputs.  All ordered pairs are measured up to
    64 codewords, a random subset of 64*N pairs beyond that.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if book.num_codewords < 1:
        raise ValueError("codebook is empty")

    count = book.num_codewords
    if count <= FULL_PAIR_LIMIT:
        pairs = [(i, j) for i in range(count) for j in range(count) if i != j]
        sampling = "full"
    else:
        rng = spawn(seed, "pairs")
        picks = rng.choice(count * (count - 1), size=PAIR_SAMPLE_FACTOR * count, replace=False)
        pairs = [_ordered_pair(int(k), count) for k in sorted(picks)]
        sampling = "subsampled"

    n = book.block_length
    intensities = book.intensities  # computed here, not once per thread

    def decide(i, tested):
        rng = spawn(seed, "estimate", i)
        outputs = rng.poisson(intensities[i], size=(trials, n + book.params.memory))
        counts = outputs[:, :n].astype(float)  # converted once, tested many times
        own = _statistics(counts, intensities[i], n)
        return (int((own > book.threshold).sum()),
                [int((_statistics(counts, intensities[j], n) <= book.threshold).sum())
                 for j in tested],
                {})

    return tally(sender_map, range(count), pairs, trials, seed, decide,
                 {"pair_sampling": sampling, "pairs": len(pairs), "threshold": book.threshold})


def di_rate(num_messages: int, n: int) -> float:
    """Identification rate log2(N) / (n log2 n) on the superexponential scale."""
    if num_messages < 1:
        raise ValueError("message count must be at least 1")
    if n < 2:
        raise ValueError("block length must be at least 2")
    return math.log2(num_messages) / (n * math.log2(n))
