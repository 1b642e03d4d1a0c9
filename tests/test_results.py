"""``results.sender_map``, the scheduler the DI senders run through.

The CPU count is set by replacing ``os.sched_getaffinity``, so the threaded
paths run whatever the host has.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from dipc import ChannelParams, PowerConstraints
from dipc import calibrate_threshold, construct_codebook, estimate_errors
from dipc.results import sender_map

FIG2 = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0, dark_rate=0.1)


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture(params=[1, 2, 4])
def cpus(request, monkeypatch):
    set_cpus(monkeypatch, request.param)
    return request.param


def test_di_results_identical_across_cpu_counts(monkeypatch):
    outcomes = []
    for count in (1, 2, 4):
        set_cpus(monkeypatch, count)
        book = construct_codebook(16, FIG2, PowerConstraints(peak=10.0, average=10.0),
                                  0.1, 0.1, max_codewords=8, seed=3)
        threshold = calibrate_threshold(book, 1000, seed=3, target=book.type1_budget)
        result = estimate_errors(book, 300, seed=8)
        outcomes.append((threshold, result.rows(None), result.extras))
    assert book.num_codewords == 8
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


def test_keeps_input_order_when_later_senders_finish_first(cpus):
    finished = []

    def fn(s):
        time.sleep(0.005 * (6 - s))  # sender 0 takes longest
        finished.append(s)
        return s * s

    assert sender_map(fn, range(6)) == [s * s for s in range(6)]
    if cpus > 1:
        assert finished != sorted(finished)


def test_calling_thread_runs_senders(cpus):
    def fn(s):
        time.sleep(0.01)
        return threading.get_ident()

    idents = set(sender_map(fn, range(8)))
    assert threading.get_ident() in idents
    assert (len(idents) > 1) == (cpus > 1)


def test_without_affinity_call_uses_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def fn(s):
        time.sleep(0.01)
        return threading.get_ident()

    assert len(set(sender_map(fn, range(8)))) == 2


class Boom(Exception):
    pass


def test_exception_propagates_and_stops_new_senders(cpus):
    started = {}
    raised_at = []
    error = Boom("sender 3")

    def fn(s):
        started[s] = time.perf_counter()
        if s == 3:
            raised_at.append(time.perf_counter())
            raise error
        time.sleep(0.05)  # still running when sender 3 fails
        return s

    with pytest.raises(Boom) as caught:
        sender_map(fn, range(12))
    assert caught.value is error
    assert max(started.values()) <= raised_at[0]
    assert len(started) < 12
    if cpus == 1:
        assert sorted(started) == [0, 1, 2, 3]


def test_errstate_holds_in_every_thread(cpus):
    def fn(s):
        time.sleep(0.01)
        try:
            np.float64(1.0) / np.float64(0.0)
        except FloatingPointError:
            return threading.get_ident()
        return None

    with np.errstate(divide="raise"):
        idents = sender_map(fn, range(8))
    assert None not in idents
    assert (len(set(idents)) > 1) == (cpus > 1)


def test_every_sender_runs_once_under_fast_switching(monkeypatch):
    set_cpus(monkeypatch, 8)
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = sender_map(lambda s: calls.append(s) or -s, range(2000))
    finally:
        sys.setswitchinterval(interval)
    assert results == [-s for s in range(2000)]
    assert sorted(calls) == list(range(2000))
