"""Smoke test of the benchmark at tiny trial counts.

    python3 -m pytest bench

Each case copies the benchmark and the package sources into a temporary
checkout and runs the benchmark there, the way it runs in a fresh clone.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tmp_path


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_match_the_config(checkout, name):
    # correct is false when a traced call count differs from the computed one
    result = _result(_bench(checkout, "--workload", name, "--seed", "3", "--seconds", "1",
                            "--trace", "1", "--trials", "20"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_end_to_end_metrics_and_output_check(checkout):
    proc = _bench(checkout, "--workload", "dif-pilot", "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--trials", "20")
    result = _result(proc)
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_ratio" in proc.stdout

    raw = workloads.config("dif-pilot", 3, trials=20)
    rep = checkout / ".bench_out" / "dif-pilot-trace0" / "rep-0"
    assert workloads.check_outputs("dif-pilot", raw, rep) == []
    summary = rep / "summary.csv"
    lines = summary.read_text(encoding="utf-8").splitlines(keepends=True)
    summary.write_text("".join(lines[:-1]), encoding="utf-8")  # drop inner_error
    assert any("missing" in p for p in workloads.check_outputs("dif-pilot", raw, rep))


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "di-pack", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cross_check_catches_an_unwrapped_binding():
    sys.path.insert(0, str(ROOT / "src"))
    from dipc import dif_protocol, harness

    raw = workloads.config("dif-pilot", 5, trials=10)

    def traced_counts(leave_unwrapped):
        tracer = Tracer()
        tracer.install()
        try:
            if leave_unwrapped:
                dif_protocol.spawn = dif_protocol.spawn.__wrapped__
            harness.run(harness.validate_config(raw))
        finally:
            tracer.uninstall()
        report = tracer.report()
        counts = dict(report["counters"])
        counts.update({f"{k}.calls": v[0] for k, v in report["functions"].items()})
        return counts

    def mismatches(counts):
        return {k for k, want in workloads.expected_calls(raw, 0, counts).items()
                if counts.get(k, 0) != want}

    assert mismatches(traced_counts(False)) == set()
    assert mismatches(traced_counts(True)) == {"seeding.spawn.calls"}
    assert dif_protocol.spawn.__module__ == "dipc.seeding"
