"""Three-phase identification protocol over the noiseless feedback link.

Phase 1 turns channel noise into shared randomness: the encoder transmits a
periodic pilot (peak release, then silence for the memory length), and the
receiver's per-block counts, fed back noiselessly, become a random string
known to both sides.  A letter-typicality filter keeps only statistically
regular strings, making the shared randomness near uniform.  Phase 2 conveys
the message through that randomness: both sides hash (message, shared
string) into a small range M, and the encoder transmits the hash value with
a short peak/silence transmission code decoded by exact maximum likelihood.
The verifier accepts a candidate message iff the string is typical and the
decoded hash matches the candidate's.  Wrong messages then collide with
probability about 1/M, so Type II errors are paid for by hash range rather
than block length, which is what lifts the code size to the
double-exponential scale.

A :class:`DIFCode` holds the pilot as its n-slot input array (``pilot``) and
the inner code as a (hash_range, ceil(sqrt(n))) array of codewords
(``inner``), one row per hash value.  Cross-phase interference is modeled
exactly: a slot's mean depends only on the last memory+1 inputs, so the last
K = memory pilot slots, a truncated final block included, leak into the
phase-2 window just as the channel law dictates.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import (ChannelParams, PowerConstraints, _ByValue, _check_int, as_counts,
                      as_output, check_index, effective_intensity)
from .errors import ConstructionError
from .measures import (DEFAULT_TAIL_MASS, _check_poisson, poisson_entropy_exact,
                       poisson_pmf_truncated)
from .results import ErrorEstimate, SimResult, tally
from .seeding import _int_bytes, spawn

# Finite-sample slack (in binomial sigmas) added to the typicality tolerance;
# vanishes as the block count grows, leaving the pure letter-typicality test.
TYPICALITY_GUARD_SIGMAS = 4.0


def letter_laws(params: ChannelParams, peak: float) -> np.ndarray:
    """Poisson means seen at each in-block position during the pilot phase."""
    return params.hit_probs * peak * params.slot_duration + params.dark_rate


def letter_entropy_bits(laws, tail_mass: float = DEFAULT_TAIL_MASS) -> float:
    """Summed Poisson entropies (bits) of the per-position pilot laws."""
    return sum(poisson_entropy_exact(float(law), tail_mass) for law in laws)


def blockize(y, memory: int) -> np.ndarray:
    """Split phase-1 outputs into consecutive (memory+1)-blocks, dropping a
    trailing partial block."""
    y = np.asarray(y)
    period = memory + 1
    full = y.size // period
    return y[: full * period].reshape(full, period)


@dataclass(frozen=True, eq=False)
class TypicalSetSpec(_ByValue):
    """Letter-typicality test parameters for the pilot's block law."""

    eps: float
    letter_laws: np.ndarray
    tail_mass: float

    def __post_init__(self):
        laws = np.asarray(self.letter_laws, dtype=float)
        object.__setattr__(self, "letter_laws", laws)
        if not self.eps > 0:  # NaN would pass every string; +inf filters nothing
            raise ValueError("typicality slack must be positive")
        if laws.ndim != 1 or laws.size == 0:
            raise ValueError(f"letter_laws must be a nonempty 1-D array, got shape {laws.shape}")
        _check_poisson(laws, self.tail_mass)  # _table is built on first use

    @cached_property
    def _table(self):
        """Per position: the cap y_max+1 and its first bucket.  Per bucket
        (counts 0..y_max, then one overflow bucket): the pmf, the base
        tolerance eps*pmf + eps/(y_max+1) and the variance pmf*(1-pmf)."""
        dists = [poisson_pmf_truncated(float(law), self.tail_mass) for law in self.letter_laws]
        caps = np.array([dist.support[-1] + 1 for dist in dists])
        offsets = np.concatenate([[0], np.cumsum(caps + 1)[:-1]])
        pmf = np.concatenate([np.append(dist.mass, dist.tail_bound) for dist in dists])
        base = self.eps * pmf + self.eps / np.repeat(caps, caps + 1)
        return caps, offsets, pmf, base, pmf * (1.0 - pmf)


def typical_test(blocks, spec: TypicalSetSpec) -> bool:
    """Letter typicality: at each in-block position the empirical frequency
    of every value must stay within eps*pmf + eps/|support| of the Poisson
    pmf, plus a finite-sample allowance that shrinks with the block count.

    Counts must be nonnegative integers; integral floats are accepted.
    Counts beyond the truncated support share a single overflow bucket whose
    target mass is the recorded tail bound.
    """
    blocks = as_counts(blocks)
    if blocks.ndim != 2 or blocks.shape[1] != spec.letter_laws.size:
        raise ValueError(
            f"blocks must be 2-D with {spec.letter_laws.size} columns, got {blocks.shape}"
        )
    count = blocks.shape[0]
    if count == 0:
        raise ValueError("need at least one block")
    if not math.isfinite(spec.eps):
        return True
    caps, offsets, pmf, base, variance = spec._table
    values = np.minimum(blocks, caps)
    freq = np.bincount((values + offsets).ravel(), minlength=pmf.size) / count
    tolerance = base + TYPICALITY_GUARD_SIGMAS * np.sqrt(variance / count)
    return not np.any(np.abs(freq - pmf) > tolerance)


def typical_log_size(n: int, spec: TypicalSetSpec) -> float:
    """Asymptotic typical-set size exponent in bits:
    ceil(n/(memory+1)) times the summed per-position Poisson entropies."""
    n = _check_int("n", n, 1, 2**63)
    period = spec.letter_laws.size
    blocks = math.ceil(n / period)
    return blocks * letter_entropy_bits(spec.letter_laws, spec.tail_mass)


@dataclass(frozen=True)
class HashFamily:
    """Keyed hash family standing in for ideal uniform random maps.

    Each message index keys a pseudorandom function from block strings to
    [1, hash_range]; both parties evaluate it on the shared phase-1 string.
    """

    master_seed: int
    num_messages: int
    hash_range: int

    def __post_init__(self):
        for name in ("num_messages", "hash_range"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 1))
        if self.hash_range > self.num_messages:
            raise ValueError("need 1 <= hash_range <= num_messages")
        _int_bytes(self.master_seed)  # rejects the seeds spawn rejects

    @cached_property
    def _keyed(self):
        """BLAKE2b keyed with the master seed, copied for every hash."""
        return hashlib.blake2b(digest_size=16, key=_int_bytes(self.master_seed))


def hash_message(index: int, blocks, family: HashFamily) -> int:
    """Hash value in [1, hash_range] for (message, shared block string): the
    keyed BLAKE2b of the index (16 bytes), the row and column counts (8 bytes
    each, all little-endian) and the blocks as C-ordered little-endian 8-byte
    words.  Counts must be nonnegative integers; integral floats are accepted."""
    index = check_index(index, family.num_messages)
    blocks = as_counts(blocks)
    if blocks.ndim != 2:
        raise ValueError(f"blocks must be 2-D, got shape {blocks.shape}")
    h = family._keyed.copy()
    h.update(index.to_bytes(16, "little"))
    h.update(np.array(blocks.shape, dtype="<u8"))
    h.update(np.ascontiguousarray(blocks, dtype="<i8"))  # a view on little-endian hosts
    return 1 + int.from_bytes(h.digest(), "little") % family.hash_range


def inner_length(n: int) -> int:
    """ceil(sqrt(n)) for n >= 1, exactly: the inner codeword length."""
    return math.isqrt(n - 1) + 1


def _balanced_pool(length: int) -> float:
    """Balanced on-off patterns of ``length`` slots; inf from 68 on, past any hash range."""
    return math.comb(length, length // 2) if length < 68 else math.inf


def inner_patterns_cover(n: int, hash_range: int) -> bool:
    """Whether the 2^ceil(sqrt(n)) on-off patterns cover ``hash_range`` codewords."""
    return (hash_range - 1).bit_length() <= inner_length(n)


def build_inner_code(n: int, hash_range: int, peak: float, seed: int) -> np.ndarray:
    """Draw ``hash_range`` distinct balanced on-off codewords of length
    ceil(sqrt(n)), one per row; falls back to unbalanced patterns if the
    balanced pool is too small."""
    n, hash_range = _check_int("n", n, 1, 2**63), _check_int("hash_range", hash_range, 1)
    length = inner_length(n)
    if not inner_patterns_cover(n, hash_range):
        raise ValueError(f"hash_range {hash_range} exceeds the 2^{length} binary patterns")
    rng = spawn(seed, "inner")
    ones, pool = length // 2, _balanced_pool(length)
    patterns: dict[bytes, np.ndarray] = {}  # insertion-ordered: rows in draw order
    for _ in range(200 * hash_range + 64):
        if len(patterns) < pool:
            bits = np.zeros(length, dtype=np.int8)
            bits[rng.choice(length, size=ones, replace=False)] = 1
        else:
            bits = rng.integers(0, 2, size=length).astype(np.int8)
        patterns.setdefault(bits.tobytes(), bits)
        if len(patterns) == hash_range:
            return np.stack(list(patterns.values())).astype(float) * peak
    raise ConstructionError("could not sample enough distinct inner codewords")


def inner_pulse_bound(n: int, hash_range: int) -> int:
    """Most peak slots a codeword of ``build_inner_code(n, hash_range, ...)``
    can hold: half its length while the balanced patterns suffice, else all."""
    length = inner_length(n)
    return length // 2 if hash_range <= _balanced_pool(length) else length


def dif_power_fits(n: int, memory: int, hash_range: int, constraints: PowerConstraints) -> bool:
    """Whether the average budget of the n + ceil(sqrt(n)) input slots covers
    the peak-amplitude pilot plus the heaviest inner codeword
    :func:`inner_pulse_bound` allows."""
    worst = (math.ceil(n / (memory + 1)) + inner_pulse_bound(n, hash_range)) * constraints.peak
    return worst <= (n + inner_length(n)) * constraints.average + 1e-9


def _ml_table(intensities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log mu, row totals) of an intensity table, the pair _ml_decode scores with."""
    with np.errstate(divide="ignore"):
        return np.log(intensities), intensities.sum(axis=1)


def _ml_decode(y_window: np.ndarray, table: tuple[np.ndarray, np.ndarray]) -> int:
    """Most likely codeword row index (0-based) for one output window."""
    log_mu, totals = table
    # y * log(mu) only where y > 0: zero-count slots add 0, never 0 * log 0.
    terms = np.multiply(y_window, log_mu, out=np.zeros(log_mu.shape), where=y_window > 0)
    return int(np.argmax(terms.sum(axis=1) - totals))


@dataclass(frozen=True, eq=False)
class DIFCode:
    """The composed feedback code: pilot, typicality filter, hash family and
    inner transmission code over one channel."""

    n: int
    peak: float
    typ: TypicalSetSpec
    hashes: HashFamily
    inner: np.ndarray
    params: ChannelParams

    @cached_property
    def pilot(self) -> np.ndarray:
        """Phase-1 input: (peak, 0, ..., 0) blocks of length memory+1 over
        the n slots; a trailing partial block is truncated."""
        block = np.zeros(self.params.memory + 1)
        block[0] = self.peak
        return np.tile(block, math.ceil(self.n / block.size))[: self.n]

    @property
    def output_length(self) -> int:
        return self.n + self.inner.shape[1] + self.params.memory

    @cached_property
    def phase1_intensity(self) -> np.ndarray:
        """Intensity of the first n slots (pilot only reaches them)."""
        return effective_intensity(self.pilot, self.params)[: self.n]

    @cached_property
    def phase2_intensities(self) -> np.ndarray:
        """Per hash value, intensity of slots n+1 .. m+K under the pilot's
        last memory slots followed by the codeword.  Shape (M, length + memory)."""
        tail = self.pilot[max(self.n - self.params.memory, 0) :]
        return np.stack([effective_intensity(np.concatenate([tail, c]), self.params)[tail.size :]
                         for c in self.inner])

    @cached_property
    def phase2_table(self):
        """:func:`_ml_table` of :attr:`phase2_intensities`."""
        return _ml_table(self.phase2_intensities)


def build_dif_code(
    n: int,
    params: ChannelParams,
    constraints: PowerConstraints,
    num_messages: int,
    hash_range: int,
    eps: float = 0.2,
    seed: int = 0,
    tail_mass: float = DEFAULT_TAIL_MASS,
) -> DIFCode:
    """Assemble the three-phase code.

    The pilot and the inner codewords pulse at ``constraints.peak``; the
    pilot plus the worst-case inner codeword must fit the average budget
    (:func:`dif_power_fits`).  The pilot needs a full block: n > memory.
    """
    n = _check_int("n", n, params.memory + 1, 2**63)
    hashes = HashFamily(master_seed=seed, num_messages=num_messages, hash_range=hash_range)
    if not dif_power_fits(n, params.memory, hashes.hash_range, constraints):
        raise ValueError("the pilot plus the heaviest inner codeword exceed the average budget")
    peak = constraints.peak
    typ = TypicalSetSpec(eps=eps, letter_laws=letter_laws(params, peak), tail_mass=tail_mass)
    inner = build_inner_code(n, hash_range, peak, seed)
    return DIFCode(n=n, peak=peak, typ=typ, hashes=hashes, inner=inner, params=params)


@dataclass(frozen=True, eq=False)
class DIFTranscript:
    """Audit record of one protocol run."""

    blocks: np.ndarray
    typical: bool
    hash_value: int


def _encode_with_rngs(index: int, code: DIFCode, rng_phase1, rng_phase2):
    """(phase-1 outputs, their blocks, the hash value sent, the phase-2 window)."""
    y1 = rng_phase1.poisson(code.phase1_intensity)
    blocks = blockize(y1, code.params.memory)
    value = hash_message(index, blocks, code.hashes)
    return y1, blocks, value, rng_phase2.poisson(code.phase2_intensities[value - 1])


def _receive(blocks, window, code: DIFCode) -> int | None:
    """The verifier's hash value: None when the pilot string is atypical,
    else the ML decode of the phase-2 window."""
    if not typical_test(blocks, code.typ):
        return None
    return _ml_decode(window, code.phase2_table) + 1


def dif_encode(index: int, code: DIFCode, seed: int):
    """Run the encoder side once: pilot through the channel, feedback, hash,
    inner transmission.  Returns the full output record (length m + memory)
    and a transcript; an atypical string is recorded, not raised."""
    y1, blocks, value, window = _encode_with_rngs(index, code, spawn(seed, "phase1"),
                                                  spawn(seed, "phase2"))
    return np.concatenate([y1, window]), DIFTranscript(
        blocks=blocks, typical=typical_test(blocks, code.typ), hash_value=value)


def dif_identify(index: int, y, code: DIFCode) -> bool:
    """Verifier for "was message ``index`` sent?": reject atypical strings,
    otherwise ML-decode the phase-2 window and compare hash values.  Counts
    must be nonnegative integers; integral floats are accepted."""
    index = check_index(index, code.hashes.num_messages)
    y = as_output(y, code.output_length)
    blocks = blockize(y[: code.n], code.params.memory)
    decoded = _receive(blocks, y[code.n :], code)
    return decoded is not None and decoded == hash_message(index, blocks, code.hashes)


def estimate_dif_errors(code: DIFCode, message_pairs, trials: int, seed: int) -> SimResult:
    """Monte Carlo protocol errors over ordered (sent, tested) pairs.

    Type I for each distinct sender: rejection of the true message
    (atypicality plus inner decoding failure).  Type II per pair: acceptance
    of the wrong message.  Per-trial streams are derived from
    (seed, sender, trial), so results are schedule-independent.
    """
    trials = _check_int("trials", trials, 1, 2**63)
    pairs = [tuple(check_index(i, code.hashes.num_messages) for i in p) for p in message_pairs]
    if any(i == j for i, j in pairs):
        raise ValueError("Type II pairs must have distinct messages")

    def decide(sender, tested):
        rejects = atypical = 0
        accepts = [0] * len(tested)
        for t in range(trials):
            _, blocks, sent_value, window = _encode_with_rngs(
                sender, code,
                spawn(seed, "dif", sender, t, "p1"),
                spawn(seed, "dif", sender, t, "p2"),
            )
            decoded = _receive(blocks, window, code)
            rejects += decoded != sent_value  # an atypical string (None) rejects too
            if decoded is None:
                atypical += 1
                continue
            for k, j in enumerate(tested):
                accepts[k] += decoded == hash_message(j, blocks, code.hashes)
        return rejects, accepts, {"atypical": atypical}

    # Serial: the per-trial loop is Python code holding the interpreter lock.
    return tally(map, sorted({i for i, _ in pairs}), pairs, trials, seed, decide,
                 {"atypical": 0})


def estimate_inner_error(code: DIFCode, trials: int, seed: int) -> ErrorEstimate:
    """Measured decoding error of the inner code inside the protocol window
    (uniform hash values, pilot-tail interference included)."""
    trials = _check_int("trials", trials, 1, 2**63)
    errors = 0
    size = code.inner.shape[0]
    for t in range(trials):
        rng = spawn(seed, "inner-error", t)
        value = int(rng.integers(size)) + 1
        y2 = rng.poisson(code.phase2_intensities[value - 1])
        if _ml_decode(y2, code.phase2_table) + 1 != value:
            errors += 1
    return ErrorEstimate(errors, trials)


def collision_bound_check(num_messages: int, hash_range: int, type2_budget: float,
                          log_size_bits: float) -> bool:
    """Feasibility of the union bound over hash collisions.

    True iff (N-1) * 2^(-S * (type2 * log2(M) - 1)) < 1 with S = 2^log_size_bits,
    evaluated in log space.  Requires 1/M < type2 < 1 and a log_size_bits that is not NaN.
    """
    num_messages = _check_int("num_messages", num_messages, 1)
    hash_range = _check_int("hash_range", hash_range, 1, 2**63)
    if not 0 < type2_budget < 1 or log_size_bits != log_size_bits:  # NaN; ints past 1e308 pass
        raise ValueError(f"need type2_budget in (0, 1) and log_size_bits not NaN,"
                         f" got {type2_budget!r} and {log_size_bits!r}")
    if 1.0 / hash_range >= type2_budget:
        raise ValueError("need hash collisions rarer than the Type II budget: 1/M < budget")
    if num_messages <= 1:
        return True
    factor = type2_budget * math.log2(hash_range) - 1.0
    if factor <= 0:
        return False
    threshold = (math.inf if log_size_bits > 1023 else 2.0 ** log_size_bits) * factor
    # Exact at the boundary: 2^(bits-1) <= N-1 < 2^bits.
    bits = (num_messages - 1).bit_length()
    if bits <= threshold:
        return True
    if bits - 1 >= threshold:
        return False
    return math.log2(num_messages - 1) < threshold


def max_messages_log_log(n: int, params: ChannelParams, peak: float) -> float:
    """log2 log2 of the largest feasible message count:
    n/(memory+1) times the summed per-position pilot-law entropies (bits)."""
    n = _check_int("n", n, 1, 2**63)
    return n / (params.memory + 1) * letter_entropy_bits(letter_laws(params, peak))


def dif_rate(log_log_bits: float, n: int) -> float:
    """Feedback identification rate log2 log2(N) / n."""
    n = _check_int("n", n, 1, 2**63)
    return log_log_bits / n
