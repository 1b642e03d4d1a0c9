"""Benchmark dipc end to end and per layer on one workload.

    python3 bench/run.py --workload di-wide --seed 7 --seconds 40 --trace 0

With ``--trace 0`` the run times set-up in several fresh interpreters, then
runs the workload's experiment (``harness.run`` + ``harness.write_outputs``)
one after another in one fresh worker process until ``--seconds`` are used,
and reports the end-to-end metrics.  Set-up and experiment times are scaled
to the reference host speed (hostspeed.py) before their medians are taken.  With
``--trace 1`` the worker alternates untraced and traced experiments and the
run reports the per-layer metrics.  Every experiment's files are checked; the last stdout
line is the JSON result.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from hostspeed import REFERENCE_S
from tracer import TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# One client, one experiment at a time: BLAS and OpenMP pools pinned to one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up-only interpreters per untraced run; the worker's own set-up adds one sample.
SETUP_LAUNCHES = 4
SETUP_TIMEOUT_S = 15
# How long a worker may run past its deadline before it is killed.
WORKER_GRACE_S = 60


class BenchError(Exception):
    """The benchmark could not measure: a process failed before any result."""


def _worker(args: list[str], env: dict, timeout: float) -> list[tuple[float, dict]]:
    """Run worker.py to completion; returns (seconds since launch, record) per line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    records = []
    try:
        for line in proc.stdout:
            records.append((time.perf_counter() - start, json.loads(line)))
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    if [rec.get("event") for _, rec in records[:2]] != ["ready", "reference"]:
        raise BenchError("worker printed no ready and reference records")
    return records


def _setup_s(records) -> tuple[float, float]:
    """Set-up time of one worker launch (seconds from launch to its ready
    line), unscaled and scaled to the reference host speed by the reference
    block the worker timed right after set-up."""
    (ready_at, _), (_, reference) = records[:2]
    return ready_at, ready_at * REFERENCE_S / reference["reference_s"]


def src_lines() -> int:
    """Lines in the package sources, the simplicity count tracked next to timings."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _evaluate(name: str, raw: dict, out: Path, experiments: list[dict], codewords: int):
    """Check each experiment; returns (problems per rep, summary sha256 of rep 0)."""
    problems: dict[int, list[str]] = {}
    first_sha = None
    for exp in experiments:
        rep_dir = out / f"rep-{exp['rep']}"
        found = []
        if "error" in exp:
            found.append(exp["error"])
        else:
            try:
                found += workloads.check_outputs(name, raw, rep_dir)
                sha = workloads.sha256_file(rep_dir / "summary.csv")
            except (OSError, ValueError, KeyError) as exc:
                found.append(f"unreadable output: {type(exc).__name__}: {exc}")
                sha = None
            if first_sha is None:
                first_sha = sha
            elif sha != first_sha:
                found.append("summary.csv differs from the first run of this seed")
        if exp.get("trace"):
            counts = _layer_counts(exp["trace"])
            for key, want in workloads.expected_calls(raw, codewords, counts).items():
                if counts.get(key, 0) != want:
                    found.append(f"traced {key} = {counts.get(key, 0)}, expected {want}")
        problems[exp["rep"]] = found
        if exp["rep"] > 0:
            shutil.rmtree(rep_dir, ignore_errors=True)
    return problems, first_sha


def _layer_counts(trace: dict) -> dict:
    counts = dict(trace["counters"])
    for func, (calls, _, _) in trace["functions"].items():
        counts[f"{func}.calls"] = calls
    return counts


def _scaled_run_s(exp: dict) -> float:
    """An experiment's wall time at the reference host speed: scaled by the
    reference block timed just before and just after it."""
    return exp["run_s"] * REFERENCE_S / statistics.mean(exp["reference_s"])


def _per_layer(raw, codewords, traced, untraced) -> dict:
    values = {}
    for module, func in TARGETS:
        key = f"{module}.{func}"
        stats = [exp["trace"]["functions"].get(key, [0, 0.0, 0.0]) for exp in traced]
        values[f"{key}.calls"] = stats[0][0]
        values[f"{key}.s"] = statistics.median(s[1] for s in stats)
        values[f"{key}.self_s"] = statistics.median(s[2] for s in stats)
    counts = _layer_counts(traced[0]["trace"])
    candidates = counts.get("di_code.construct.candidates", 0)
    tests = counts.get("dif_protocol.typical_test.calls", 0)
    is_di = raw["kind"] == "di-sim"
    values.update({
        "di_code.construct.candidates": candidates,
        "di_code.construct.accept_ratio": codewords / candidates if candidates else 0.0,
        "di_code.statistic.cells": counts.get("di_code.statistic.cells", 0),
        "di_code.pairs": workloads.di_pairs(codewords) if is_di else 0,
        "channel.poisson_draws": workloads.poisson_draws(raw, codewords),
        "dif_protocol.typical_ratio":
            counts.get("dif_protocol.typical_true", 0) / tests if tests else 0.0,
        "trace_overhead_s": statistics.median(map(_scaled_run_s, traced))
                            - statistics.median(map(_scaled_run_s, untraced)),
        "src.lines": src_lines(),
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="smaller Monte Carlo trial counts, for a quick smoke run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dipc" / "__init__.py").is_file():
        print(f"error: no dipc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    raw = workloads.config(args.workload, args.seed, args.trials)
    codewords = workloads.WORKLOADS[args.workload][1] or 0
    out = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config_path = out / "workload.json"
    config_path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}

    deadline = time.time() + args.seconds
    try:
        setup = [] if args.trace else [
            _setup_s(_worker(["--config", str(config_path), "--setup-only"], env,
                             SETUP_TIMEOUT_S))
            for _ in range(SETUP_LAUNCHES)]
        records = _worker(
            ["--config", str(config_path), "--out", str(out), "--deadline", repr(deadline),
             "--trace", str(args.trace)],
            env, max(0.0, deadline - time.time()) + WORKER_GRACE_S)
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(_setup_s(records))
    experiments = [rec for _, rec in records if rec["event"] == "experiment"]
    done = records[-1][1]

    problems, summary_sha = _evaluate(args.workload, raw, out, experiments, codewords)
    failed = sum(1 for found in problems.values() if found)
    measured = [exp for exp in experiments if "run_s" in exp and not exp["warmup"]]
    untraced = [exp for exp in measured if not exp["traced"]]
    traced = [exp for exp in measured if exp["traced"]]
    if not untraced or (args.trace and not traced):
        print(f"error: no experiment completed: {problems}", file=sys.stderr)
        return 1

    if args.trace:
        values = _per_layer(raw, codewords, traced, untraced)
        wanted = spec["per_layer"]
    else:
        run_s = statistics.median(map(_scaled_run_s, untraced))
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "run_s": run_s,
            "decisions_per_s": workloads.decisions(raw, codewords) / run_s,
            "peak_rss_mb": done["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    references = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    reference = references.get(args.workload, {}).get(str(args.seed))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seeds": {"default": workloads.DEFAULT_SEED, "held_out": workloads.HELD_OUT_SEED},
        "versions": done["versions"],
        "nproc": os.cpu_count(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "src.lines": src_lines(),
        "samples": {"setup": len(setup), "untraced": len(untraced), "traced": len(traced)},
        "summary_sha256": summary_sha,
        "harness.summary_identical": None if reference is None else summary_sha == reference,
        "wall_run_s_samples": [exp["run_s"] for exp in untraced],
        "reference_s_samples": [exp["reference_s"] for exp in untraced],
        "wall_setup_s_samples": [wall for wall, _ in setup],
        "setup_s_samples": [scaled for _, scaled in setup],
        "problems": {rep: found for rep, found in problems.items() if found},
        "metrics": metrics,
    }
    (out / "report.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"experiments {len(experiments)} (traced {len(traced)})  set-up samples {len(setup)}")
    for key, metric in metrics.items():
        print(f"  {key:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'fail_ratio':42s} {failed / len(experiments):>16.6g} ratio  "
          f"({failed} of {len(experiments)} experiments failed)")
    wall = [exp["run_s"] for exp in untraced]
    speed = [REFERENCE_S / statistics.mean(exp["reference_s"]) for exp in untraced]
    print(f"  {'wall run_s median (min)':42s} {statistics.median(wall):>16.6g} s  "
          f"({min(wall):.6g} s; over {len(untraced)} timed untraced experiments)")
    print(f"  {'wall setup_s median':42s} "
          f"{statistics.median(wall for wall, _ in setup):>16.6g} s")
    print(f"  {'host speed / reference speed, median':42s} {statistics.median(speed):>16.6g}")
    for rep, found in record["problems"].items():
        print(f"  experiment {rep} failed: {'; '.join(found[:5])}")
    identical = record["harness.summary_identical"]
    print(f"  harness.summary_identical: "
          f"{'no reference digest for this seed' if identical is None else identical}"
          f"  (summary.csv sha256 {summary_sha})")
    print("record " + json.dumps({k: record[k] for k in
                                  ("seeds", "versions", "nproc", "threads", "src.lines",
                                   "samples")}))
    print(json.dumps({"correct": failed == 0, "attempted": len(experiments),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
