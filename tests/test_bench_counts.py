"""The benchmark's traced call counts, checked in the tier-1 suite.

Each workload of ``bench/workloads.py`` runs in-process at 10 trials under
``bench/tracer.py``'s tracer, and every traced count must equal what
``workloads.expected_calls`` derives from the config.  A change under
``src/`` that alters how often a traced function runs fails here, not only
in ``python3 -m pytest bench``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from dipc import harness  # noqa: E402


def traced_counts(name):
    raw = workloads.config(name, workloads.DEFAULT_SEED, trials=10)
    tracer = Tracer()
    tracer.install()
    try:
        harness.run(harness.validate_config(raw))
    finally:
        tracer.uninstall()
    report = tracer.report()
    counts = dict(report["counters"])
    counts.update({f"{key}.calls": stats[0] for key, stats in report["functions"].items()})
    return raw, counts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_match_the_formulas(name):
    raw, counts = traced_counts(name)
    codewords = workloads.WORKLOADS[name][1] or 0
    expected = workloads.expected_calls(raw, codewords, counts)
    mismatches = {key: (counts.get(key, 0), want) for key, want in expected.items()
                  if counts.get(key, 0) != want}
    assert not mismatches, f"traced (got, expected): {mismatches}"


def test_di_pack_candidate_count_pinned():
    # The formulas above take the candidate count from the trace itself, so a
    # packing loop that drew extra candidates would still match them.
    _, counts = traced_counts("di-pack")
    assert counts["di_code.construct.candidates"] == 7175
    assert counts["seeding.spawn.calls"] == 7245
    assert counts["channel.effective_intensity.calls"] == 7210
