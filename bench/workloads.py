"""The benchmark's workloads and what a correct run of each must produce.

Each workload is a dipc experiment config built from the workload seed,
which becomes the config's ``master_seed``.  This module uses only the
standard library: run.py checks the files a run wrote without
importing the code it measures.  See README.md for why each workload was
chosen.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

CHANNEL = {"memory": 2, "hit_probs": [0.6, 0.3, 0.1], "slot_duration": 1.0, "dark_rate": 0.1}
POWER = {"peak": 10.0, "average": 10.0}

DEFAULT_SEED = 7
# A seed kept out of tuning, so a claimed change can be confirmed on fresh inputs.
HELD_OUT_SEED = 11

# Mirrors dipc.di_code: all ordered pairs up to this many codewords,
# otherwise PAIR_SAMPLE_FACTOR * N sampled pairs.
FULL_PAIR_LIMIT = 64
PAIR_SAMPLE_FACTOR = 64

# Each entry: the config without its seed, and the codebook size every seed
# must reach (None for dif-sim).
WORKLOADS = {
    # Decoder-statistic heavy: N > 64 takes the subsampled-pair path.
    "di-wide": ({"kind": "di-sim", "n": 96, "max_codewords": 96,
                 "trials": 500, "calibration_trials": 1000}, 96),
    # Per-trial Python pipeline of the feedback protocol; no di_code work.
    "dif-pilot": ({"kind": "dif-sim", "n": 900, "num_messages": 64, "hash_range": 32,
                   "pairs": [[s, t] for s in (0, 1) for t in range(2, 6)],
                   "trials": 1000, "inner_error_trials": 1000}, None),
    # Greedy packing until the rejection-streak stop: with on/off levels every
    # one of the C(7, 3) = 35 balanced patterns is far enough from the others,
    # so every seed packs all 35 and then draws 200 * 35 rejected candidates.
    "di-pack": ({"kind": "di-sim", "n": 7, "levels": [0.0, 10.0], "max_codewords": 100000,
                 "trials": 1000, "calibration_trials": 1000}, 35),
}


def config(name: str, seed: int, trials: int | None = None) -> dict:
    """Raw experiment config of workload ``name`` for a workload seed.

    ``trials`` shrinks the Monte Carlo trial counts for a quick smoke run;
    calibration keeps the 1000 trials dipc requires.
    """
    base, _ = WORKLOADS[name]
    raw = {**base, "channel": dict(CHANNEL), "power": dict(POWER), "master_seed": seed}
    if trials is not None:
        raw["trials"] = trials
        if raw["kind"] == "dif-sim":
            raw["inner_error_trials"] = trials
    return raw


def _tested_per_sender(raw: dict) -> dict[int, int]:
    tested: dict[int, int] = {}
    for sender, _ in raw["pairs"]:
        tested[sender] = tested.get(sender, 0) + 1
    return tested


def di_pairs(codewords: int) -> int:
    """Ordered (sent, tested) pairs estimate_errors measures for N codewords."""
    if codewords <= FULL_PAIR_LIMIT:
        return codewords * (codewords - 1)
    return PAIR_SAMPLE_FACTOR * codewords


def decisions(raw: dict, codewords: int) -> int:
    """Identification decisions in one run: one decoder evaluation per trial
    per tested message, calibration and the inner-code estimate included."""
    if raw["kind"] == "di-sim":
        tested = codewords + di_pairs(codewords)
        return codewords * raw["calibration_trials"] + tested * raw["trials"]
    per_trial = sum(1 + m for m in _tested_per_sender(raw).values())
    return per_trial * raw["trials"] + raw["inner_error_trials"]


def poisson_draws(raw: dict, codewords: int) -> int:
    """Poisson variates a run draws, computed from the config."""
    memory = raw["channel"]["memory"]
    if raw["kind"] == "di-sim":
        per_output = raw["n"] + memory
        return codewords * (raw["calibration_trials"] + raw["trials"]) * per_output
    window = math.ceil(math.sqrt(raw["n"])) + memory  # phase-2 output window
    senders = len(_tested_per_sender(raw))
    return senders * raw["trials"] * (raw["n"] + window) + raw["inner_error_trials"] * window


def expected_calls(raw: dict, codewords: int, counters: dict) -> dict[str, int]:
    """Traced counts implied by the config, the codebook size and the traced
    candidate and typical-string counts.  Every workload's senders test the
    same number of messages, which the hash_message count assumes."""
    candidates = counters.get("di_code.construct.candidates", 0)
    if raw["kind"] == "di-sim":
        return {
            "di_code._statistics.calls": 2 * codewords + di_pairs(codewords),
            "seeding.spawn.calls": candidates + 2 * codewords + (codewords > FULL_PAIR_LIMIT),
            "channel.effective_intensity.calls": candidates + codewords,
            "di_code.statistic.cells": decisions(raw, codewords) * raw["n"],
            "dif_protocol.typical_test.calls": 0,
        }
    tested = _tested_per_sender(raw)
    runs = len(tested) * raw["trials"]
    inner = raw["inner_error_trials"]
    typical = counters.get("dif_protocol.typical_true", 0)
    return {
        "dif_protocol.typical_test.calls": runs,
        "dif_protocol.blockize.calls": runs,
        # two streams per trial, one per inner-error trial, one for the inner code
        "seeding.spawn.calls": 2 * runs + inner + 1,
        "dif_protocol._ml_decode.calls": typical + inner,
        "dif_protocol.hash_message.calls": runs + typical * max(tested.values()),
        # the phase-1 intensity plus one phase-2 row per hash value
        "channel.effective_intensity.calls": 1 + raw["hash_range"],
        "measures.poisson_pmf_truncated.calls": raw["channel"]["memory"] + 1,
        "di_code._statistics.calls": 0,
    }


def _expected_rows(raw: dict, codewords: int):
    if raw["kind"] == "di-sim":
        return {("type1", str(i), "") for i in range(codewords)}
    keys = {("type1", str(s), "") for s in _tested_per_sender(raw)}
    keys |= {("type2", str(i), str(j)) for i, j in raw["pairs"]}
    keys.add(("inner_error", "", ""))
    return keys


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_outputs(name: str, raw: dict, out_dir: Path) -> list[str]:
    """Problems in the files one run wrote; an empty list means correct.

    summary.csv must hold exactly the rows the config implies, every row must
    carry the digest of config.json and the config's trial count, and each
    estimate must lie inside its interval, which must lie inside [0, 1].
    """
    out_dir = Path(out_dir)
    _, codewords = WORKLOADS[name]
    digest = sha256_file(out_dir / "config.json")
    with open(out_dir / "summary.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    keys = []
    for row in rows:
        key = (row["metric"], row["message_i"], row["message_j"])
        keys.append(key)
        if row["config_digest"] != digest:
            problems.append(f"{key}: config_digest does not match config.json")
        trials = raw["inner_error_trials"] if key[0] == "inner_error" else raw["trials"]
        if row["trials"] != str(trials):
            problems.append(f"{key}: {row['trials']} trials, expected {trials}")
        est, low, high = (float(row[c]) for c in ("estimate", "ci_low", "ci_high"))
        if not 0.0 <= low <= est <= high <= 1.0:
            problems.append(f"{key}: estimate {est} outside [{low}, {high}] or not in [0, 1]")
    if len(set(keys)) != len(keys):
        problems.append("summary.csv repeats a row key")
    found = set(keys)
    expected = _expected_rows(raw, codewords)
    if raw["kind"] == "di-sim":
        type2 = {k for k in found if k[0] == "type2"}
        found -= type2
        pairs = {(int(i), int(j)) for _, i, j in type2}
        if len(pairs) != di_pairs(codewords) or any(
                i == j or not (0 <= i < codewords and 0 <= j < codewords) for i, j in pairs):
            problems.append(f"{len(type2)} type2 rows, expected {di_pairs(codewords)} "
                            f"distinct ordered pairs of {codewords} codewords")
    if found != expected:
        problems.append(f"row keys differ from the config: missing {sorted(expected - found)[:3]}, "
                        f"unexpected {sorted(found - expected)[:3]}")
    return problems
