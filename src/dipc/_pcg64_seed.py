"""PCG64's seed words computed from a SeedSequence pool.

numpy's ``SeedSequence.generate_state`` is Python-level code under
``np.errstate`` and took about a third of one ``seeding.spawn``.  Its rule is
O'Neill's seed_seq_fe, fixed by numpy's stream-compatibility policy (NEP 19):
output word i is pool word i % 4 XORed with c_i, times c_{i+1}, then
v ^= v >> 16, where c_0 = INIT_B and c_{i+1} = c_i * MULT_B mod 2**32.
PCG64 asks for 4 uint64, that is 8 such words, paired low word first.

Importing this module loads ``numpy.random``, which numpy otherwise loads on
first use; ``seeding`` imports it on its first stream so that ``import dipc``
does not pay for it.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_HASH_CONSTS = list(itertools.accumulate(range(8), lambda c, _: c * _MULT_B % 2**32,
                                         initial=_INIT_B))
_POOL_CYCLE = np.arange(8) % 4
_XOR = np.array(_HASH_CONSTS[:8], np.uint32)
_MULT = np.array(_HASH_CONSTS[1:], np.uint32)
_SHIFT = np.array(16, np.uint32)  # a 0-d array converts faster than the int
_LITTLE_ENDIAN = sys.byteorder == "little"


class PCG64Seed(ISeedSequence):
    """Answers PCG64's one seed request, (4, uint64), with the words numpy's
    ``generate_state`` would give for ``pool``; any other request raises."""

    __slots__ = ("_words",)

    def __init__(self, pool: np.ndarray):
        v = pool[_POOL_CYCLE]
        v ^= _XOR
        v *= _MULT
        v ^= v >> _SHIFT
        self._words = (v.view(np.uint64) if _LITTLE_ENDIAN
                       else v.astype("<u4").view("<u8").astype(np.uint64))

    def generate_state(self, n_words, dtype):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only PCG64's seed request (4, uint64) is answered,"
                             f" not ({n_words!r}, {dtype!r})")
        return self._words
