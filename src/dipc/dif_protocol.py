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
from dataclasses import dataclass, field

import numpy as np

from .channel import (ChannelParams, PowerConstraints, _ByValue, _Record, _read_only, as_counts,
                      as_output, check_index, effective_intensity)
from .errors import ConstructionError, _check_int, _check_real
from .measures import DEFAULT_TAIL_MASS, MAX_MEAN, poisson_entropy_exact, poisson_pmf_truncated
from .results import ErrorEstimate, SimResult, tally
from .seeding import _int_bytes, spawn

# Finite-sample slack (in binomial sigmas) added to the typicality tolerance;
# vanishes as the block count grows, leaving the pure letter-typicality test.
TYPICALITY_GUARD_SIGMAS = 4.0


def letter_laws(params: ChannelParams, peak: float) -> np.ndarray:
    """Poisson means seen at each in-block position during the pilot phase."""
    laws = params.hit_probs * _check_real("peak", peak, 0) * params.slot_duration + params.dark_rate
    if not laws.max() <= MAX_MEAN:  # so the error names peak, not a Poisson mean
        raise ValueError(f"peak {peak!r}: a pilot law {laws.max()} exceeds MAX_MEAN={MAX_MEAN:g}")
    return laws


def letter_entropy_bits(laws, tail_mass: float = DEFAULT_TAIL_MASS) -> float:
    """Summed Poisson entropies (bits) of the per-position pilot laws."""
    return sum(poisson_entropy_exact(law, tail_mass) for law in laws)


def blockize(y, memory: int) -> np.ndarray:
    """Split phase-1 outputs into consecutive (memory+1)-blocks, dropping a
    trailing partial block."""
    y = np.asarray(y)
    period = memory + 1
    full = y.size // period
    return y[: full * period].reshape(full, period)


@dataclass(frozen=True, eq=False)
class TypicalSetSpec(_ByValue):
    """Letter-typicality test parameters for the pilot's block law, ``letter_laws`` a
    read-only copy.  ``_table``, built when the spec is made and outside its value,
    holds per position the cap y_max+1 and its first bucket, and per bucket (counts
    0..y_max, then one overflow bucket) the pmf, the slack eps/(y_max+1) and pmf*(1-pmf)."""

    eps: float
    letter_laws: np.ndarray
    tail_mass: float

    def __post_init__(self):
        laws = _read_only(np.array(self.letter_laws, dtype=float))
        vars(self).update(eps=_check_real("eps", self.eps, 0, math.inf, "(]"), letter_laws=laws,
                          tail_mass=_check_real("tail_mass", self.tail_mass, 0, 1, "()"))
        if laws.ndim != 1 or laws.size == 0:
            raise ValueError(f"letter_laws must be a nonempty 1-D array, got shape {laws.shape}")
        dists = [poisson_pmf_truncated(law, self.tail_mass) for law in laws]
        caps = np.array([dist.support[-1] + 1 for dist in dists])
        offsets = np.concatenate([[0], np.cumsum(caps + 1)[:-1]])
        pmf = np.concatenate([np.append(dist.mass, dist.tail_bound) for dist in dists])
        # typical_test adds eps*pmf itself: at eps=inf a zero pmf would make it NaN here
        slack = self.eps / np.repeat(caps, caps + 1)
        object.__setattr__(self, "_table", (caps, offsets, pmf, slack, pmf * (1.0 - pmf)))


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
    caps, offsets, pmf, slack, variance = spec._table
    values = np.minimum(blocks, caps)
    freq = np.bincount((values + offsets).ravel(), minlength=pmf.size) / count
    tolerance = spec.eps * pmf + slack + TYPICALITY_GUARD_SIGMAS * np.sqrt(variance / count)
    return not np.any(np.abs(freq - pmf) > tolerance)


def typical_log_size(n: int, spec: TypicalSetSpec) -> float:
    """Asymptotic typical-set size exponent in bits:
    ceil(n/(memory+1)) times the summed per-position Poisson entropies."""
    n = _check_int("n", n, 1, 2**63)
    period = spec.letter_laws.size
    blocks = math.ceil(n / period)
    return blocks * letter_entropy_bits(spec.letter_laws, spec.tail_mass)


@dataclass(frozen=True)
class HashFamily(_Record):
    """Keyed hash family standing in for ideal uniform random maps.

    Each message index (hashed in 16 bytes: num_messages is below 2**128) keys a
    pseudorandom function from block strings to [1, hash_range]; both parties
    evaluate it on the shared phase-1 string.  ``_keyed``, BLAKE2b keyed with the
    master seed and copied for every hash, is built when the family is made.
    """

    master_seed: int
    num_messages: int
    hash_range: int

    def __post_init__(self):
        for name in ("num_messages", "hash_range"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 1, 2**128))
        if self.hash_range > self.num_messages:
            raise ValueError("need 1 <= hash_range <= num_messages")
        key = _int_bytes(self.master_seed)  # rejects the seeds spawn rejects
        object.__setattr__(self, "_keyed", hashlib.blake2b(digest_size=16, key=key))


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
    peak = _check_real("peak", peak, 0, ends="()")  # else NaN, negative or all-zero rows
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
class DIFCode(_Record):
    """The composed feedback code over one channel, a record of its parameters.
    The pilot needs n > memory, and with the heaviest inner codeword must fit
    the average budget.  Derived when the code is made, the arrays read-only:
    - ``typ``: the pilot's typicality filter;
    - ``inner``: the inner code, one row per hash value, pulsing at ``constraints.peak``;
    - ``pilot``: the phase-1 input, (peak, 0, ..., 0) blocks of length memory+1
      over the n slots, a trailing partial block truncated;
    - ``phase1_intensity``: the intensity of the first n slots, which only the pilot reaches;
    - ``phase2_intensities``: per hash value, the intensity of slots n+1 .. m+K under the
      pilot's last memory slots followed by the codeword, shape (M, length + memory);
    - ``phase2_table``: :func:`_ml_table` of ``phase2_intensities``."""

    n: int
    params: ChannelParams
    constraints: PowerConstraints
    hashes: HashFamily
    eps: float
    tail_mass: float
    typ: TypicalSetSpec = field(init=False)
    inner: np.ndarray = field(init=False)
    pilot: np.ndarray = field(init=False, repr=False)
    phase1_intensity: np.ndarray = field(init=False, repr=False)
    phase2_intensities: np.ndarray = field(init=False, repr=False)
    phase2_table: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        n = _check_int("n", self.n, self.params.memory + 1, 2**63)
        peak, rows, memory = self.constraints.peak, self.hashes.hash_range, self.params.memory
        if not dif_power_fits(n, memory, rows, self.constraints):
            raise ValueError("the pilot plus the heaviest inner codeword exceed the average budget")
        typ = TypicalSetSpec(self.eps, letter_laws(self.params, peak), self.tail_mass)
        inner = build_inner_code(n, rows, peak, self.hashes.master_seed)
        block = np.zeros(memory + 1)
        block[0] = peak
        pilot = np.tile(block, math.ceil(n / block.size))[:n]
        phase1 = effective_intensity(pilot, self.params)[:n]
        phase2 = np.stack([effective_intensity(np.concatenate([pilot[n - memory :], c]),
                                               self.params)[memory:] for c in inner])
        table = _ml_table(phase2)
        for array in (inner, pilot, phase1, phase2, *table):
            _read_only(array)
        vars(self).update(n=n, eps=typ.eps, tail_mass=typ.tail_mass, typ=typ, inner=inner,
                          pilot=pilot, phase1_intensity=phase1, phase2_intensities=phase2,
                          phase2_table=table)  # frozen: set once, here

    @property
    def output_length(self) -> int:
        return self.n + self.inner.shape[1] + self.params.memory


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
    """The three-phase code whose hash family is keyed by ``seed``."""
    hashes = HashFamily(master_seed=seed, num_messages=num_messages, hash_range=hash_range)
    return DIFCode(n=n, params=params, constraints=constraints, hashes=hashes, eps=eps,
                   tail_mass=tail_mass)


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
    type2_budget = _check_real("type2_budget", type2_budget, 1.0 / hash_range, 1, "()")
    log_size_bits = _check_real("log_size_bits", log_size_bits, -math.inf, math.inf, "[]")
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
    return _check_real("log_log_bits", log_log_bits, -math.inf, math.inf, "()") / n
