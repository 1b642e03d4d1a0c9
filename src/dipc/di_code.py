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

from .channel import ChannelParams, PowerConstraints, effective_intensity, validate_power
from .errors import ConstructionError
from .measures import min_distance_radius
from .results import ErrorEstimate, SimResult
from .seeding import spawn

# Above this codebook size the ordered Type II pair matrix is subsampled.
FULL_PAIR_LIMIT = 64
PAIR_SAMPLE_FACTOR = 64


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


@dataclass(frozen=True)
class PackingGeometry:
    """Radii of the power ball and of the packing spheres, in sqrt-intensity units."""

    n: int
    ball_radius: float
    packing_radius: float
    rate_limit: float
    avg_ball_radius: float
    peak_ball_radius: float


def power_ball_radius(
    n: int,
    params: ChannelParams,
    constraints: PowerConstraints,
    memory: int,
    packing_radius: float,
) -> PackingGeometry:
    """Smallest ball containing every admissible reparametrized codeword.

    The average and peak constraints give balls of squared radii
    n*(dark + avg*memory*T_s) and n*(dark + peak*memory*T_s); codewords must
    lie in both, so the binding one uses min(avg, peak).
    """
    if memory < 1:
        raise ValueError("memory must be at least 1 for the power-ball bound")
    dark = params.dark_rate
    ts = params.slot_duration
    avg_sq = n * dark + n * constraints.average * memory * ts
    peak_sq = n * dark + n * constraints.peak * memory * ts
    rate = min(constraints.average, constraints.peak)
    return PackingGeometry(
        n=n,
        ball_radius=math.sqrt(n * dark + n * rate * memory * ts),
        packing_radius=packing_radius,
        rate_limit=rate,
        avg_ball_radius=math.sqrt(avg_sq),
        peak_ball_radius=math.sqrt(peak_sq),
    )


def packing_log_count_bound(geometry: PackingGeometry) -> float:
    """Sphere-packing ceiling on the codebook size, in bits: n * log2(2l/r)."""
    r = geometry.packing_radius
    l = geometry.ball_radius
    if not r > 0:
        raise ValueError("packing radius must be positive")
    if r > l:
        raise ValueError(f"packing radius {r} exceeds ball radius {l}")
    return geometry.n * math.log2(2.0 * l / r)


@dataclass
class ConstructionStrategy:
    """Knobs for greedy codebook construction.

    ``levels`` is the per-slot release-rate alphabet (default 0, peak/2,
    peak).  With the default ``balanced`` composition every candidate is a
    random permutation of the same near-equal level multiset, so all
    codewords share one own-statistic scale and a single decoder threshold
    calibrates uniformly; ``uniform`` draws slots independently instead.
    ``separation_scale`` (at least 1) multiplies the required minimum
    distance; values above 1 trade codebook size for decoder margin.
    Construction stops at ``max_codewords`` or after
    ``stop_rejections_per_word`` times the current size of consecutive
    rejections.
    """

    levels: tuple[float, ...] | None = None
    max_codewords: int = 64
    stop_rejections_per_word: int = 200
    separation_scale: float = 1.0
    composition: str = "balanced"


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


def construct_codebook(
    n: int,
    params: ChannelParams,
    constraints: PowerConstraints,
    type1_budget: float,
    type2_budget: float,
    strategy: ConstructionStrategy | None = None,
    seed: int = 0,
) -> DICodebook:
    """Greedy rejection packing of grid codewords at sqrt-domain distance 2r.

    Candidates are drawn slot-wise from the level alphabet, rescaled onto the
    average-power budget when it binds, and accepted when they keep the
    minimum pairwise distance.  Deterministic in ``seed``.
    """
    if n < 1:
        raise ValueError("block length must be positive")
    strategy = strategy or ConstructionStrategy()
    radius = min_distance_radius(type1_budget, type2_budget)
    needed = 2.0 * radius * strategy.separation_scale
    levels = strategy.levels
    if levels is None:
        levels = (0.0, constraints.peak / 2.0, constraints.peak)
    levels = np.sort(np.asarray(levels, dtype=float))
    if np.any(levels < 0) or np.any(levels > constraints.peak):
        raise ValueError("level alphabet must lie in [0, peak]")
    if strategy.composition not in ("balanced", "uniform"):
        raise ValueError("composition must be 'balanced' or 'uniform'")
    if strategy.max_codewords < 1:
        raise ValueError("max_codewords must be at least 1")
    if not strategy.separation_scale >= 1:
        raise ValueError("separation_scale must be at least 1")
    if strategy.composition == "balanced":
        counts = np.full(levels.size, n // levels.size)
        counts[: n % levels.size] += 1  # remainder on the lowest levels
        base = np.repeat(levels, counts)

    budget = n * constraints.average
    accepted: list[np.ndarray] = []
    # Accepted sqrt-codewords as the first len(accepted) rows; doubles when full.
    pool = np.empty((min(strategy.max_codewords, 64), n))
    rejections = 0
    candidate = 0
    while len(accepted) < strategy.max_codewords:
        rng = spawn(seed, "codebook", candidate)
        candidate += 1
        if strategy.composition == "balanced":
            x = rng.permutation(base)
        else:
            x = rng.choice(levels, size=n)
        total = x.sum()
        if total > budget:
            x = x * (budget / total)
        s = reparameterize(x, params)
        k = len(accepted)
        if k and np.linalg.norm(pool[:k] - s, axis=1).min() < needed:
            rejections += 1
            if rejections >= strategy.stop_rejections_per_word * k:
                break
            continue
        if k == pool.shape[0]:
            pool = np.concatenate([pool, np.empty_like(pool)])
        pool[k] = s
        accepted.append(x)
        rejections = 0

    if not accepted:
        raise ConstructionError(
            "no codeword accepted; power budget too tight for the required separation"
        )
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
    absolute deviation from its intensity is at most the threshold."""
    if not 0 <= index < book.num_codewords:
        raise IndexError(f"message index {index} outside [0, {book.num_codewords})")
    y = np.asarray(y, dtype=float)
    n = book.block_length
    if y.ndim != 1 or y.size != n + book.params.memory:
        raise ValueError(f"output length must be {n + book.params.memory}, got {y.size}")
    return bool(_statistics(y[None, :], book.intensities[index], n)[0] <= book.threshold)


def calibrate_threshold(
    book: DICodebook,
    trials: int,
    seed: int,
    target: float | None = None,
) -> float:
    """Pick the smallest threshold whose empirical Type I error meets the target.

    Samples ``trials`` outputs per codeword, then takes the smallest observed
    statistic at which every per-message rejection rate is at most ``target``
    (default: the codebook's Type I budget).  Calibrating to a fraction of
    the budget leaves headroom for an independent verification run to
    confirm the budget with confidence.  Sets ``book.threshold`` and returns
    it.
    """
    if trials < 1000:
        raise ValueError("calibration needs at least 1000 trials")
    if target is None:
        target = book.type1_budget
    if not 0 <= target:
        raise ValueError("target error rate must be nonnegative")

    n = book.block_length
    stats = np.empty((book.num_codewords, trials))
    for i in range(book.num_codewords):
        rng = spawn(seed, "calibrate", i)
        outputs = rng.poisson(book.intensities[i], size=(trials, n + book.params.memory))
        stats[i] = _statistics(outputs, book.intensities[i], n)

    # Per message the smallest observed value leaving at most
    # floor(target * trials) samples above it, then the max over messages.
    allowed = int(math.floor(target * trials))
    order = np.sort(stats, axis=1)
    idx = max(0, trials - allowed - 1)
    book.threshold = float(order[:, idx].max())
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

    tested_by_sender: dict[int, list[int]] = {}
    for i, j in pairs:
        tested_by_sender.setdefault(i, []).append(j)

    n = book.block_length
    type1: dict[int, ErrorEstimate] = {}
    type2: dict[tuple[int, int], ErrorEstimate] = {}
    for i in range(count):
        rng = spawn(seed, "estimate", i)
        outputs = rng.poisson(book.intensities[i], size=(trials, n + book.params.memory))
        counts = outputs[:, :n].astype(float)  # converted once, tested many times
        own = _statistics(counts, book.intensities[i], n)
        type1[i] = ErrorEstimate(int((own > book.threshold).sum()), trials)
        for j in tested_by_sender.get(i, ()):
            other = _statistics(counts, book.intensities[j], n)
            type2[(i, j)] = ErrorEstimate(int((other <= book.threshold).sum()), trials)

    return SimResult(
        kind="di-sim",
        type1=type1,
        type2=type2,
        trials=trials,
        seed=seed,
        extras={"pair_sampling": sampling, "pairs": len(pairs), "threshold": book.threshold},
    )


def di_rate(num_messages: int, n: int) -> float:
    """Identification rate log2(N) / (n log2 n) on the superexponential scale."""
    if num_messages < 1:
        raise ValueError("message count must be at least 1")
    if n < 2:
        raise ValueError("block length must be at least 2")
    return di_rate_from_bits(math.log2(num_messages), n)


def di_rate_from_bits(log_count_bits: float, n: int) -> float:
    """Rate for a code size given directly as log2(N) bits."""
    if n < 2:
        raise ValueError("block length must be at least 2")
    return log_count_bits / (n * math.log2(n))
