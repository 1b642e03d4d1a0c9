"""Deterministic random-stream derivation.

Every stochastic routine in this package takes an integer master seed and
derives independent child streams from it by hashing a (seed, label, index...)
path with BLAKE2b.  Hashing makes the derivation order-free: a stream's state
depends only on its path, never on how many other streams were created before
it or on which process created it.  Monte Carlo runs therefore reproduce
byte-identically under any trial scheduling.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


def _int_bytes(value) -> bytes:
    # bool is an int subclass and a float would truncate: both would alias
    # another integer's stream.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"stream seeds and indices must be integers, got {value!r}")
    try:
        return int(value).to_bytes(16, "little", signed=True)
    except OverflowError:
        raise ValueError(f"stream seed or index {value!r} is outside the signed"
                         " 128-bit range") from None


def _entropy_words(digest: bytes) -> np.ndarray:
    """``int.from_bytes(digest, "little")`` as the 32-bit words SeedSequence
    splits an integer into: low word first, high zero words dropped, one word
    for zero."""
    return np.frombuffer(digest, "<u4", count=max(1, (len(digest.rstrip(b"\x00")) + 3) // 4))


@functools.cache
def _seed_type() -> type:
    # Loads numpy.random on the first stream, not at ``import dipc``.
    from ._pcg64_seed import PCG64Seed
    return PCG64Seed


def _stream(digest: bytes) -> np.random.Generator:
    """``default_rng(SeedSequence(e))`` for the digest read as a little-endian
    integer ``e``.  SeedSequence only mixes the pool; the PCG64 seed words
    come from :mod:`._pcg64_seed`."""
    pool = np.random.SeedSequence(_entropy_words(digest)).pool
    return np.random.Generator(np.random.PCG64(_seed_type()(pool)))


def spawn(master_seed: int, *path: int | str) -> np.random.Generator:
    """Derive an independent generator for (master_seed, *path).

    The seed is an integer; path elements may be integers or short strings
    (e.g. a phase label and a trial index).  Floats and bools raise
    ``TypeError``; an integer outside the signed 128-bit range or a string
    holding a NUL character raises ``ValueError``.  The same path always
    yields the same stream.
    """
    data = [_int_bytes(master_seed)]
    for part in path:
        if isinstance(part, str):
            # The zero byte ends the part: a part holding one would alias
            # the path split there.
            if "\x00" in part:
                raise ValueError(f"stream label {part!r} contains a NUL character")
            data.append(b"s" + part.encode("utf-8") + b"\x00")
        else:
            data.append(b"i" + _int_bytes(part))
    return _stream(hashlib.blake2b(b"".join(data), digest_size=32).digest())
