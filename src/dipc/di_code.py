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
from dataclasses import dataclass, field

import numpy as np

from .channel import (ChannelParams, PowerConstraints, _Record, _read_only, as_output,
                      check_index, effective_intensity, validate_power)
from .errors import _check_int, _check_real
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
    n, kappa = _check_int("n", n, 2, 2**63), _check_real("kappa", kappa, 0, 1)
    value = 2.0 ** (kappa * math.log2(n))
    nearest = round(value)
    if abs(value - nearest) < 1e-9:
        value = nearest
    return int(math.floor(value))


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
    n, memory = _check_int("n", n, 1, 2**63), _check_int("memory", memory, 1, 2**63)
    rate = min(constraints.average, constraints.peak)
    return math.sqrt(n * params.dark_rate + n * rate * memory * params.slot_duration)


def packing_log_count_bound(n: int, ball_radius: float, packing_radius: float) -> float:
    """Sphere-packing ceiling on the codebook size, in bits: n * log2(2l/r)."""
    n = _check_int("n", n, 1, 2**63)
    ball_radius = _check_real("ball_radius", ball_radius, 0, ends="()")
    packing_radius = _check_real("packing_radius (at most ball_radius)", packing_radius, 0,
                                 ball_radius, "(]")
    ratio = 2.0 * ball_radius / packing_radius
    if ratio == math.inf:  # 2l/r is past the float range, its log is not
        return n * (1.0 + math.log2(ball_radius) - math.log2(packing_radius))
    return n * math.log2(ratio)


@dataclass(eq=False)
class DICodebook(_Record):
    """Codewords (a nonempty N x n array), their channel, and the threshold decision rule.

    ``packing_radius`` is half the guaranteed minimum sqrt-domain distance.
    ``threshold`` starts at +inf (accept everything); run
    :func:`calibrate_threshold` before measuring errors.  ``intensities``, the
    (N, n + memory) effective intensities of the codewords, is built when the book is made.
    Both arrays are read-only, ``codewords`` a copy; once made, only ``threshold`` is assigned.
    """

    codewords: np.ndarray
    params: ChannelParams
    constraints: PowerConstraints
    packing_radius: float
    type1_budget: float
    type2_budget: float
    threshold: float = math.inf
    intensities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.codewords = _read_only(np.array(self.codewords, dtype=float))
        shape = self.codewords.shape
        if len(shape) != 2 or 0 in shape:
            raise ValueError(f"codewords must be a nonempty 2-D array, got shape {shape}")
        for name, high in (("packing_radius", math.inf), ("type1_budget", 1), ("type2_budget", 1)):
            setattr(self, name, _check_real(name, getattr(self, name), 0, high))
        self.intensities = _read_only(
            np.stack([effective_intensity(x, self.params) for x in self.codewords]))

    def __setattr__(self, name, value):
        if name == "threshold":  # on every assignment
            value = _check_real("threshold", value, -math.inf, math.inf, "[]")
        if name != "threshold" and "intensities" in vars(self):  # the table is the last field set
            raise AttributeError(f"cannot assign {name!r} of a made DICodebook, only threshold")
        super().__setattr__(name, value)

    @property
    def num_codewords(self) -> int:
        return self.codewords.shape[0]

    @property
    def block_length(self) -> int:
        return self.codewords.shape[1]


def validate_codebook(book: DICodebook) -> None:
    """Raise unless the codebook meets its structural invariants."""
    for i, x in enumerate(book.codewords):
        if not validate_power(x, book.constraints):
            raise ValueError(f"codeword {i} violates the power constraints")
    s = np.sqrt(book.intensities[:, : book.block_length])
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
    the minimum pairwise distance 2r of :func:`min_distance_radius`, which the
    budgets require but do not guarantee: a book packed at it can miss them,
    the Type II budget on short blocks.  ``separation_scale`` multiplies that
    distance; values above 1 trade codebook size for decoder margin.  The
    first candidate has nothing to keep apart from, so a book holds at least
    one codeword however tight the budget.  Construction stops at
    ``max_codewords`` or after :data:`STOP_REJECTIONS_PER_WORD` times the
    current size of consecutive rejections.  Deterministic in ``seed``.
    """
    n = _check_int("n", n, 1, 2**63)
    radius = min_distance_radius(type1_budget, type2_budget)
    needed = 2.0 * radius * _check_real("separation_scale", separation_scale, 1)
    if levels is None:
        levels = (0.0, constraints.peak / 2.0, constraints.peak)
    levels = np.sort(np.asarray(levels, dtype=float))
    if levels.size == 0 or not np.all((levels >= 0) & (levels <= constraints.peak)):
        raise ValueError("level alphabet must be nonempty and lie in [0, peak]")
    max_codewords = _check_int("max_codewords", max_codewords, 1, 2**63)
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
        # The batch is filled as one array.  Shuffling a row in place draws
        # what ``permutation(base)`` draws, and the row totals are each row's
        # own pairwise ``sum``, so every candidate is bit for bit a per-row one.
        xs = np.tile(base, (size, 1))
        for j, x in enumerate(xs):
            spawn(seed, "codebook", candidate + j).shuffle(x)
        totals = np.add.reduce(xs, axis=1)
        over = totals > budget
        xs[over] *= (budget / totals[over])[:, None]
        batch = np.empty((size, n))
        for j, x in enumerate(xs):
            batch[j] = effective_intensity(x, params)[:n]
        np.sqrt(batch, out=batch)  # the sqrt-domain candidates
        candidate += size
        # Candidates too near an earlier codeword are rejections, counted in
        # bulk; only the rest are walked.  sqrt is monotone, so testing the
        # nearest distance to each group of codewords apart decides as
        # testing the nearest of both.
        clear = np.ones(size, dtype=bool)
        if k:
            clear = np.sqrt(_nearest_sq_distances(pool[:k], batch)) >= needed
        after = 0  # first candidate after this batch's last acceptance
        for j in np.flatnonzero(clear).tolist():
            kk = len(accepted)
            # also screen against codewords accepted in this batch
            if kk > k and math.sqrt(_nearest_sq_distances(pool[k:kk], batch[None, j])[0]) < needed:
                continue
            if kk == pool.shape[0]:
                pool = np.concatenate([pool, np.empty_like(pool)])
            pool[kk] = batch[j]
            accepted.append(xs[j].copy())  # not a view that keeps the batch alive
            rejections, after = 0, j + 1
        rejections += size - after
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


def _sender_statistics(book: DICodebook, trials: int, seed: int, label: str, i: int, tested=()):
    """Draw ``trials`` outputs of codeword ``i`` from ``spawn(seed, label, i)``; yield their
    statistics against decoder ``i``, then each decoder of ``tested``, one array at a time."""
    n, intensities = book.block_length, book.intensities
    counts = spawn(seed, label, i).poisson(intensities[i], size=(trials, n + book.params.memory))
    counts = counts[:, :n].astype(float)  # float once for every score
    for j in (i, *tested):
        yield _statistics(counts, intensities[j], n)


def decode_identify(y, index: int, book: DICodebook) -> bool:
    """Test "was codeword ``index`` sent?": accept iff the per-slot mean
    absolute deviation from its intensity is at most the threshold.  Counts
    must be nonnegative integers; integral floats are accepted."""
    index = check_index(index, book.num_codewords)
    n = book.block_length
    y = as_output(y, n + book.params.memory)
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
    trials, target = _check_int("trials", trials, 1000, 2**63), _check_real("target", target, 0, 1)

    # Per message the smallest observed value leaving at most
    # floor(target * trials) samples above it, then the max over messages.
    allowed = int(math.floor(target * trials))
    idx = max(0, trials - allowed - 1)

    def order_statistic(i):
        own = next(_sender_statistics(book, trials, seed, "calibrate", i))
        return np.partition(own, idx)[idx]

    book.threshold = max(sender_map(order_statistic, range(book.num_codewords)))
    return book.threshold


def estimate_errors(book: DICodebook, trials: int, seed: int) -> SimResult:
    """Monte Carlo Type I / Type II error estimates with Wilson intervals.

    Type I for message i is the rejection rate of decoder i on outputs of
    codeword i; Type II for an ordered pair (i, j) is the acceptance rate of
    decoder j on the same outputs.  All ordered pairs are measured up to
    64 codewords, a random subset of 64*N pairs beyond that.
    """
    trials = _check_int("trials", trials, 1, 2**63)
    count = book.num_codewords
    if count <= FULL_PAIR_LIMIT:
        pairs = [(i, j) for i in range(count) for j in range(count) if i != j]
        sampling = "full"
    else:
        rng = spawn(seed, "pairs")
        picks = rng.choice(count * (count - 1), size=PAIR_SAMPLE_FACTOR * count, replace=False)
        # the k-th ordered pair (i, j), i != j, in row-major order
        i, r = np.divmod(np.sort(picks), count - 1)
        pairs = list(zip(i.tolist(), (r + (r >= i)).tolist()))
        sampling = "subsampled"

    def decide(i, tested):
        stats = _sender_statistics(book, trials, seed, "estimate", i, tested)
        return (int((next(stats) > book.threshold).sum()),
                [int((s <= book.threshold).sum()) for s in stats],
                {})

    return tally(sender_map, range(count), pairs, trials, seed, decide,
                 {"pair_sampling": sampling, "pairs": len(pairs), "threshold": book.threshold})


def di_rate(num_messages: int, n: int) -> float:
    """Identification rate log2(N) / (n log2 n) on the superexponential scale."""
    num_messages, n = _check_int("num_messages", num_messages, 1), _check_int("n", n, 2, 2**63)
    return math.log2(num_messages) / (n * math.log2(n))
