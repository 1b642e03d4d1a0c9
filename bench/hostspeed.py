"""How fast the host runs right now, from a fixed block of reference work.

The benchmark shares a few cores with other tenants, whose load slows every
process on the host by 20-50% for seconds to minutes.  A slow phase that
lasts a whole run moves every statistic taken inside that run.  The worker
therefore times :func:`reference_block` before and after each experiment:
the block's work never changes, so its time tracks only the host's speed.
run.py divides an experiment's wall time by the block's time next to it and
multiplies by :data:`REFERENCE_S`, which gives the experiment's time at the
host speed on which the bounds were set.

The block mixes the two kinds of work dipc does: a Python loop over small
numpy calls (the DIF pipeline and greedy packing) and whole-array Poisson
sampling and distance arithmetic (the DI decoder statistic).  It does not
call dipc, so a change to dipc cannot move it.
"""

from __future__ import annotations

from time import perf_counter

# About the median reference_block() time (0.098-0.103 s) on the 2-CPU
# virtual machine the bounds were set on (Python 3.11.7, numpy 2.4.6).  Only a
# scale: any fixed value gives the same relative spreads.
REFERENCE_S = 0.1


def reference_block() -> float:
    """Seconds one fixed block of interpreter and numpy work takes."""
    import numpy as np

    start = perf_counter()
    rng = np.random.default_rng(12345)
    total = 0.0
    for i in range(6000):
        draws = rng.poisson(3.0, size=64)
        total += float(np.sqrt(draws).sum())
        table = {j: j * i for j in range(16)}
        total += table[i % 16]
    rows = np.sqrt(rng.poisson(3.0, size=(96, 1024)))
    for _ in range(4):
        outputs = np.sqrt(rng.poisson(3.0, size=(128, 1024)))
        cross = outputs @ rows.T
        total += float(np.min((outputs ** 2).sum(1)[:, None] - 2.0 * cross))
    if not np.isfinite(total):
        raise ArithmeticError("reference block went wrong")
    return perf_counter() - start
