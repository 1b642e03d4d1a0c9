"""Monte Carlo result containers, binomial confidence intervals and the one
Type I / Type II tally both identification codes are measured with."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .errors import _check_int


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion.

    Unlike the Wald interval it stays inside [0, 1] and gives a nonzero upper
    bound when no successes were observed.
    """
    trials = _check_int("trials", trials, 1, 2**63)
    successes = _check_int("successes", successes, 0, trials + 1)
    p = successes / trials
    z = 1.959963984540054  # the two-sided 95% normal quantile
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    # at the extremes the analytic bounds are exact; avoid rounding residue
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class ErrorEstimate:
    """Empirical error rate with its Wilson 95% interval."""

    successes: int
    trials: int
    estimate: float = field(init=False)
    ci_low: float = field(init=False)
    ci_high: float = field(init=False)

    def __post_init__(self):
        lo, hi = wilson_interval(self.successes, self.trials)
        object.__setattr__(self, "estimate", self.successes / self.trials)
        object.__setattr__(self, "ci_low", lo)
        object.__setattr__(self, "ci_high", hi)


@dataclass
class SimResult:
    """Type I / Type II error estimates from one simulation run.

    ``type1`` maps message index to its estimate; ``type2`` maps ordered
    pairs (sent, tested).  ``extras`` carries run-specific diagnostics such
    as the pair-sampling mode or atypicality counts.
    """

    type1: dict[int, ErrorEstimate]
    type2: dict[tuple[int, int], ErrorEstimate]
    seed: int
    extras: dict

    @property
    def max_type1(self) -> ErrorEstimate:
        return max(self.type1.values(), key=lambda e: e.estimate)

    @property
    def max_type2(self) -> ErrorEstimate:
        return max(self.type2.values(), key=lambda e: e.estimate)

    def rows(self, digest: str | None) -> list[dict]:
        """Flatten to one record per estimate, in a fixed deterministic order,
        each stamped with ``digest``, the digest of the run's config."""
        estimates = [("type1", i, None, est) for i, est in sorted(self.type1.items())]
        estimates += [("type2", i, j, est) for (i, j), est in sorted(self.type2.items())]
        return [result_row(digest, metric, est.estimate, self.seed, est.trials,
                           i, j, (est.ci_low, est.ci_high))
                for metric, i, j, est in estimates]


def sender_map(fn, senders) -> list:
    """``[fn(s) for s in senders]``, with the senders spread over every CPU
    this process may run on.

    The calling thread and one helper thread per further available CPU (no
    more threads than senders) take senders from one shared iterator.  numpy
    releases the interpreter lock while it samples and runs ufuncs, so the
    senders' array work overlaps; each sender derives its own streams, so the
    results do not depend on which thread runs it.  Helpers run in a copy of
    the caller's context, so ``np.errstate`` holds there too.  Results come
    back in ``senders`` order.  The first exception is re-raised once the
    senders already running have finished; no sender starts after it.
    """
    senders = list(senders)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity call outside Linux and a few other systems
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(senders))

    import contextvars
    import threading

    results = [None] * len(senders)
    jobs = iter(enumerate(senders))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work():
        while True:
            with lock:
                job = None if errors else next(jobs, None)
            if job is None:
                return
            k, sender = job
            try:
                results[k] = fn(sender)
            except BaseException as exc:  # re-raised in the calling thread
                with lock:
                    errors.append(exc)
                return

    # Each helper adds a malloc arena, so the caller works too instead of waiting.
    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return results


def tally(map_senders, senders, pairs, trials: int, seed: int, decide,
          extras: dict) -> SimResult:
    """Type I / Type II estimates over ordered (sent, tested) pairs.

    ``decide(sender, tested)`` runs ``trials`` transmissions of ``sender``,
    tests each against the sender and against every message of ``tested``
    (its distinct tested messages, in first-seen order, so a repeated pair is
    measured once), and returns (rejections of the sender, acceptances per
    tested message, diagnostic counts).  It is called once per sender through
    ``map_senders(fn, senders)``, which returns ``fn``'s results in
    ``senders`` order: the builtin ``map``, or :func:`sender_map` when the
    senders are safe to run concurrently.  The diagnostic counts are summed
    into ``extras`` in ``senders`` order.
    """
    tested_by_sender: dict[int, dict[int, None]] = {}
    for i, j in pairs:
        tested_by_sender.setdefault(i, {})[j] = None
    tested = {sender: list(tested_by_sender.get(sender, ())) for sender in senders}
    type1: dict[int, ErrorEstimate] = {}
    type2: dict[tuple[int, int], ErrorEstimate] = {}
    outcomes = map_senders(lambda sender: decide(sender, tested[sender]), list(tested))
    for (sender, tested_j), (rejections, acceptances, counts) in zip(tested.items(), outcomes):
        type1[sender] = ErrorEstimate(rejections, trials)
        for j, accepted in zip(tested_j, acceptances):
            type2[(sender, j)] = ErrorEstimate(accepted, trials)
        for name, count in counts.items():
            extras[name] += count
    return SimResult(type1=type1, type2=type2, seed=seed, extras=extras)


def result_row(digest, metric: str, estimate: float, seed: int, trials=None,
               i=None, j=None, ci=(None, None)) -> dict:
    """One flat result record, keyed by the summary.csv columns."""
    return {
        "config_digest": digest,
        "metric": metric,
        "message_i": i,
        "message_j": j,
        "estimate": estimate,
        "ci_low": ci[0],
        "ci_high": ci[1],
        "trials": trials,
        "seed": seed,
    }
