"""Deterministic random-stream derivation.

Every stochastic routine in this package takes an integer master seed and
derives independent child streams from it by hashing a (seed, label, index...)
path with BLAKE2b.  Hashing makes the derivation order-free: a stream's state
depends only on its path, never on how many other streams were created before
it or on which process created it.  Monte Carlo runs therefore reproduce
byte-identically under any trial scheduling.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _int_bytes(value) -> bytes:
    # bool is an int subclass and a float would truncate: both would alias
    # another integer's stream.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"stream seeds and indices must be integers, got {value!r}")
    return int(value).to_bytes(16, "little", signed=True)


def _entropy_words(digest: bytes) -> np.ndarray:
    """``int.from_bytes(digest, "little")`` as the 32-bit words SeedSequence
    splits an integer into: low word first, high zero words dropped, one word
    for zero."""
    return np.frombuffer(digest, "<u4", count=max(1, (len(digest.rstrip(b"\x00")) + 3) // 4))


def spawn(master_seed: int, *path: int | str) -> np.random.Generator:
    """Derive an independent generator for (master_seed, *path).

    The seed is an integer; path elements may be integers or short strings
    (e.g. a phase label and a trial index).  Floats and bools raise
    ``TypeError``.  The same path always yields the same stream.
    """
    h = hashlib.blake2b(digest_size=32)
    h.update(_int_bytes(master_seed))
    for part in path:
        if isinstance(part, str):
            h.update(b"s" + part.encode("utf-8") + b"\x00")
        else:
            h.update(b"i" + _int_bytes(part))
    return np.random.default_rng(np.random.SeedSequence(_entropy_words(h.digest())))
