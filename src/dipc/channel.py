"""Discrete-time Poisson channel with inter-symbol interference.

The transmitter releases molecules at rate ``x_t`` during slot ``t`` of
duration ``T_s``.  A molecule released in slot ``t`` is absorbed in slot
``t + k`` with probability ``p_k`` (``k = 0..K``); the receiver is fully
absorbing, so the ``p_k`` sum to one.  On top of the absorbed signal the
detector sees a constant dark-current rate.  The slot-``t`` count is then
Poisson with mean

    mu_t = lambda_0 + T_s * sum_k p_k * x_{t-k},

independent across slots given the K most recent inputs.  A block of n
input slots produces n + K output slots (the tail flushes the memory).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import _check_int, _check_real
from .measures import _log_factorial
from .seeding import spawn

PROB_SUM_TOL = 1e-12
# _as_codeword's two scans, looked up once: it runs for every packing candidate
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only: a made record cannot drift from what it derived."""
    array.flags.writeable = False
    return array


class _Record:
    """Pickled and copied by a call of its constructor: a copy is checked and derived anew."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


class _ByValue(_Record):
    """Equality and hash of a frozen dataclass over its fields, an array as a tuple."""

    def _key(self):
        return tuple(tuple(v) if isinstance(v, np.ndarray) else v for v in astuple(self))

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class ChannelParams(_ByValue):
    """Channel description: memory, hit probabilities, slot length, dark rate.

    ``hit_probs`` has ``memory + 1`` entries, each in [0, 1], summing to one; it is
    stored as a read-only copy.
    """

    memory: int
    hit_probs: np.ndarray
    slot_duration: float = 1.0
    dark_rate: float = 0.0

    def __post_init__(self):
        probs = _read_only(np.array(self.hit_probs, dtype=float))
        object.__setattr__(self, "hit_probs", probs)
        object.__setattr__(self, "memory", _check_int("memory", self.memory, 0))
        if probs.ndim != 1 or probs.size != self.memory + 1:
            raise ValueError(
                f"hit_probs must have memory+1={self.memory + 1} entries, got {probs.size}"
            )
        if not np.all((probs >= 0) & (probs <= 1)):  # also false for NaN
            raise ValueError("hit probabilities must lie in [0, 1]")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"hit probabilities must sum to 1, got {float(probs.sum())}")
        duration = _check_real("slot_duration", self.slot_duration, 0, ends="()")
        object.__setattr__(self, "slot_duration", duration)
        object.__setattr__(self, "dark_rate", _check_real("dark_rate", self.dark_rate, 0))


@dataclass(frozen=True)
class PowerConstraints(_Record):
    """Peak and average release-rate limits."""

    peak: float
    average: float

    def __post_init__(self):
        for name in ("peak", "average"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), 0, ends="()"))


def _as_codeword(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("codeword must be a nonempty 1-D sequence of release rates")
    if not (_MIN(x) >= 0 and _MAX(x) < math.inf):  # NaN fails too
        raise ValueError("release rates must be nonnegative and finite")
    return x


def as_counts(y) -> np.ndarray:
    """Output counts as native int64, ``y`` itself when it already is one; any
    integer or bool type and integral floats are accepted.  Raises ValueError
    unless every count is an integer in [0, 2**63)."""
    y = np.asarray(y)
    kind = y.dtype.kind
    if kind in "bf":  # bool and float16 cannot hold 2**63
        y = y.astype(float, copy=False)
        # the Python int 2**63: int64's max as a float rounds up to it
        valid = not (np.any(y < 0) or np.any(y >= 2**63) or np.any(np.mod(y, 1)))
    else:  # an integer type takes one scan; str, object and complex fail
        valid = (kind == "i" and y.min(initial=0) >= 0
                 or kind == "u" and (y.itemsize < 8 or y.max(initial=0) < 2**63))
    if not valid:
        raise ValueError("counts must be nonnegative integers")
    return y.astype(np.int64, copy=False)


def as_output(y, length: int) -> np.ndarray:
    """One output record: :func:`as_counts` of ``y``, which must have shape (length,)."""
    y = as_counts(y)
    if y.shape != (length,):
        raise ValueError(f"output record must have shape ({length},), got {y.shape}")
    return y


def check_index(index, count: int) -> int:
    """``index`` as an int.  Raises IndexError unless it is an integral
    message index in [0, count); a bool or a string is not one."""
    if (isinstance(index, bool) or not isinstance(index, (int, float, np.integer, np.floating))
            or not (0 <= index < count and index == int(index))):
        raise IndexError(f"message index {index!r} is not an integer in [0, {count})")
    return int(index)


def effective_intensity(x, params: ChannelParams) -> np.ndarray:
    """Per-slot Poisson means for input ``x``, length ``n + memory``.

    Slots before the block start and after slot n carry zero input, so the
    convolution is plain full-mode: the last ``memory`` slots hold the ISI
    tail of the final releases plus dark current.
    """
    x = _as_codeword(x)
    mu = np.convolve(x, params.hit_probs, mode="full")
    mu *= params.slot_duration
    mu += params.dark_rate
    return mu


def log_likelihood(y, x, params: ChannelParams) -> float:
    """Natural log of the product Poisson law of counts ``y`` given input ``x``.

    Returns -inf when some slot has zero mean but a positive count.  ln y!
    is scipy's ``gammaln(y + 1)``, computed with numpy alone.
    """
    x = _as_codeword(x)
    y = as_output(y, x.size + params.memory).astype(float)
    mu = effective_intensity(x, params)
    if np.any((mu == 0) & (y > 0)):
        return float("-inf")
    # 0*log(0) = 0 for the empty slots.
    ylogmu = np.where(y > 0, y * np.log(np.where(mu > 0, mu, 1.0)), 0.0)
    return float(np.sum(-mu + ylogmu - _log_factorial(y)))


def sample_output(x, params: ChannelParams, seed: int) -> np.ndarray:
    """Draw one output block: independent Poisson counts at the effective means.

    Deterministic for a fixed ``seed``; uses a hash-derived stream so the
    result does not depend on what else was sampled from the same master seed.
    """
    return spawn(seed, "channel").poisson(effective_intensity(x, params))


def validate_power(x, constraints: PowerConstraints) -> bool:
    """True iff every rate is at most the peak and the sum at most n * average."""
    x = _as_codeword(x)
    budget = x.size * constraints.average
    slack = 1e-12 * max(1.0, budget)
    return bool(np.all(x <= constraints.peak + 1e-12 * constraints.peak)
                and x.sum() <= budget + slack)
