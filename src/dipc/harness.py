"""Experiment configuration, orchestration and result persistence.

A run is fully determined by its effective config (including the master
seed): result rows and summary files are byte-identical across reruns.
Timestamps and wall-clock live in a separate metadata file so they never
break that guarantee.  Result files carry a schema version; readers reject
versions they do not know.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import serialize
from .channel import ChannelParams, PowerConstraints
from .di_code import (
    ConstructionStrategy,
    calibrate_threshold,
    construct_codebook,
    estimate_errors,
)
from .dif_protocol import build_dif_code, estimate_dif_errors, estimate_inner_error
from .errors import ConfigError
from .measures import (
    bhattacharyya,
    poisson_bhattacharyya_sq,
    poisson_entropy_approx,
    poisson_entropy_exact,
    poisson_pmf_truncated,
    tv_distance,
)
from .seeding import spawn

RESULT_SCHEMA_VERSION = 1
KINDS = ("bounds", "di-sim", "dif-sim", "measures-check")
OUT_DIR_ENV = "DIPC_OUT_DIR"

CSV_COLUMNS = (
    "config_digest",
    "metric",
    "message_i",
    "message_j",
    "estimate",
    "ci_low",
    "ci_high",
    "trials",
    "seed",
)

_COMMON_KEYS = {"kind", "master_seed", "out_dir"}
_KIND_KEYS = {
    "bounds": _COMMON_KEYS | {"channel", "power", "kappa", "lambda1", "lambda2", "n_grid"},
    "di-sim": _COMMON_KEYS
    | {
        "channel",
        "power",
        "n",
        "lambda1",
        "lambda2",
        "trials",
        "max_codewords",
        "levels",
        "separation_scale",
        "calibration_trials",
        "calibration_target",
    },
    "dif-sim": _COMMON_KEYS
    | {
        "channel",
        "power",
        "n",
        "eps",
        "lambda2",
        "hash_range",
        "num_messages",
        "pairs",
        "trials",
        "inner_error_trials",
        "tail_mass",
    },
    "measures-check": _COMMON_KEYS | {"trials", "mu_max"},
}
_CHANNEL_KEYS = {"memory", "hit_probs", "slot_duration", "dark_rate"}
_POWER_KEYS = {"peak", "average"}


@dataclass
class ExperimentConfig:
    """Validated effective configuration (defaults applied)."""

    data: dict

    @property
    def kind(self) -> str:
        return self.data["kind"]

    @property
    def master_seed(self) -> int:
        return self.data["master_seed"]

    @property
    def out_dir(self) -> str | None:
        return self.data.get("out_dir")

    @property
    def channel(self) -> ChannelParams:
        ch = self.data["channel"]
        return ChannelParams(
            memory=ch["memory"],
            hit_probs=np.asarray(ch["hit_probs"], dtype=float),
            slot_duration=ch.get("slot_duration", 1.0),
            dark_rate=ch.get("dark_rate", 0.0),
        )

    @property
    def power(self) -> PowerConstraints:
        return PowerConstraints(**self.data["power"])

    def canonical_bytes(self) -> bytes:
        """Canonical form of the experiment definition.

        ``out_dir`` only routes the files, so it is excluded: the same
        experiment written to two directories yields identical bytes.
        """
        data = {k: v for k, v in self.data.items() if k != "out_dir"}
        return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


def _check_channel(raw, violations: list[str]) -> None:
    if not isinstance(raw, dict):
        violations.append("channel: must be an object")
        return
    unknown = set(raw) - _CHANNEL_KEYS
    if unknown:
        violations.append(f"channel: unknown fields {sorted(unknown)}")
    for key in ("memory", "hit_probs"):
        if key not in raw:
            violations.append(f"channel.{key}: required")
    if all(k in raw for k in ("memory", "hit_probs")):
        try:
            ChannelParams(
                memory=raw["memory"],
                hit_probs=np.asarray(raw["hit_probs"], dtype=float),
                slot_duration=raw.get("slot_duration", 1.0),
                dark_rate=raw.get("dark_rate", 0.0),
            )
        except (TypeError, ValueError) as exc:
            violations.append(f"channel: {exc}")


def _check_power(raw, violations: list[str]) -> None:
    if not isinstance(raw, dict):
        violations.append("power: must be an object")
        return
    unknown = set(raw) - _POWER_KEYS
    if unknown:
        violations.append(f"power: unknown fields {sorted(unknown)}")
    missing = _POWER_KEYS - set(raw)
    if missing:
        violations.append(f"power: missing fields {sorted(missing)}")
        return
    try:
        PowerConstraints(**raw)
    except (TypeError, ValueError) as exc:
        violations.append(f"power: {exc}")


def validate_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict, apply defaults, and return the effective
    config.  Raises :class:`ConfigError` listing every violation found."""
    violations: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    data = dict(raw)

    kind = data.get("kind")
    if kind not in KINDS:
        violations.append(f"kind: must be one of {list(KINDS)}, got {kind!r}")
        raise ConfigError(violations)

    unknown = set(data) - _KIND_KEYS[kind]
    if unknown:
        violations.append(f"unknown fields for kind {kind}: {sorted(unknown)}")

    data.setdefault("master_seed", 0)
    if not isinstance(data["master_seed"], int):
        violations.append("master_seed: must be an integer")

    if kind in ("bounds", "di-sim", "dif-sim"):
        if "channel" not in data:
            violations.append("channel: required")
        else:
            _check_channel(data["channel"], violations)
        if "power" not in data:
            violations.append("power: required")
        else:
            _check_power(data["power"], violations)

    if kind == "bounds":
        kappa = data.get("kappa")
        if kappa is None:
            violations.append("kappa: required")
        elif not 0 <= kappa < 1:
            violations.append(f"kappa: must lie in [0, 1), got {kappa}")
        data.setdefault("lambda1", 0.1)
        data.setdefault("lambda2", 0.1)
        if "n_grid" in data:
            grid = data["n_grid"]
            if not (isinstance(grid, list) and grid
                    and all(isinstance(v, int) and v >= 2 for v in grid)):
                violations.append("n_grid: must be a nonempty list of integers >= 2")

    if kind in ("di-sim", "dif-sim"):
        n = data.get("n")
        if not (isinstance(n, int) and n >= 1):
            violations.append(f"n: required positive integer, got {n!r}")
        trials = data.get("trials")
        if not (isinstance(trials, int) and trials >= 1):
            violations.append(f"trials: required integer >= 1, got {trials!r}")

    if kind == "di-sim":
        data.setdefault("lambda1", 0.1)
        data.setdefault("lambda2", 0.1)
        total = data["lambda1"] + data["lambda2"]
        if not 0 < total < 1:
            violations.append(f"lambda1+lambda2 must lie in (0, 1), got {total}")
        data.setdefault("max_codewords", 16)
        scale = data.setdefault("separation_scale", 1.0)
        if isinstance(scale, bool) or not isinstance(scale, (int, float)) or not scale >= 1:
            violations.append(f"separation_scale: must be a number >= 1, got {scale!r}")
        if isinstance(data.get("trials"), int):
            data.setdefault("calibration_trials", max(1000, data["trials"]))
        data.setdefault("calibration_target", data["lambda1"])

    if kind == "dif-sim":
        data.setdefault("lambda2", 0.1)
        data.setdefault("eps", 0.2)
        if data["eps"] <= 0:
            violations.append(f"eps: must be positive, got {data['eps']}")
        if "hash_range" in data and not (
            isinstance(data["hash_range"], int) and data["hash_range"] >= 1
        ):
            violations.append("hash_range: must be a positive integer")
        data.setdefault(
            "hash_range",
            2 ** math.ceil(math.log2(2.0 / data["lambda2"])) if 0 < data["lambda2"] < 1 else 16,
        )
        data.setdefault("num_messages", 2 * data["hash_range"])
        data.setdefault("pairs", [[0, 1], [1, 0]])
        pairs = data["pairs"]
        if not (
            isinstance(pairs, list)
            and pairs
            and all(
                isinstance(p, list) and len(p) == 2 and p[0] != p[1]
                and all(isinstance(v, int) and v >= 0 for v in p)
                for p in pairs
            )
        ):
            violations.append("pairs: must be a list of [sent, tested] index pairs, sent != tested")
        else:
            top = max(max(p) for p in pairs)
            if top >= data["num_messages"]:
                violations.append(
                    f"pairs: message index {top} outside [0, {data['num_messages']})"
                )
        if isinstance(data.get("trials"), int):
            data.setdefault("inner_error_trials", data["trials"])
        data.setdefault("tail_mass", 1e-12)

    if kind == "measures-check":
        data.setdefault("trials", 1000)
        data.setdefault("mu_max", 50.0)
        if not (isinstance(data["trials"], int) and data["trials"] >= 1):
            violations.append("trials: must be a positive integer")

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(data)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return validate_config(json.load(fh))


@dataclass
class RunOutput:
    """Everything a run produced: flat result rows plus payload objects."""

    kind: str
    config: ExperimentConfig
    rows: list[dict]
    payload: dict = field(default_factory=dict)
    tables: dict[str, list[dict]] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return self.config.digest()


def _value_row(digest: str, metric: str, value: float, seed: int, trials=None,
               i=None, j=None, ci=(None, None)) -> dict:
    return {
        "config_digest": digest,
        "metric": metric,
        "message_i": i,
        "message_j": j,
        "estimate": value,
        "ci_low": ci[0],
        "ci_high": ci[1],
        "trials": trials,
        "seed": seed,
    }


def _sim_rows(result, digest: str) -> list[dict]:
    rows = []
    for row in result.rows():
        row = {"config_digest": digest, **row}
        rows.append(row)
    return rows


def _run_bounds(config: ExperimentConfig) -> RunOutput:
    data = config.data
    params = config.channel
    power = config.power
    report = bounds_mod.bound_report(data["kappa"], params, power.peak)
    digest = config.digest()
    seed = config.master_seed
    rows = [
        _value_row(digest, "kappa", report.kappa, seed),
        _value_row(digest, "di_lower", report.di_lower, seed),
        _value_row(digest, "di_upper", report.di_upper, seed),
        _value_row(digest, "dif_lower_exact", report.dif_lower_exact, seed),
        _value_row(digest, "dif_lower_asymptotic", report.dif_lower_asymptotic, seed),
    ]
    tables = {}
    if "n_grid" in data:
        trend = []
        for n in data["n_grid"]:
            cb = bounds_mod.converse_log_count(
                n, data["kappa"], params, power, data["lambda1"], data["lambda2"]
            )
            trend.append(
                {
                    "n": cb.n,
                    "memory": cb.memory,
                    "bits": cb.bits,
                    "normalized": cb.normalized,
                    "slack_bits": cb.slack_bits,
                }
            )
        tables["converse_trend"] = trend
    return RunOutput(kind="bounds", config=config, rows=rows,
                     payload={"report": report}, tables=tables)


def _run_di_sim(config: ExperimentConfig) -> RunOutput:
    data = config.data
    params = config.channel
    power = config.power
    strategy = ConstructionStrategy(
        levels=tuple(data["levels"]) if "levels" in data else None,
        max_codewords=data["max_codewords"],
        separation_scale=data["separation_scale"],
    )
    book = construct_codebook(
        data["n"], params, power, data["lambda1"], data["lambda2"],
        strategy=strategy, seed=config.master_seed,
    )
    calibrate_threshold(
        book, data["calibration_trials"], config.master_seed,
        target=data["calibration_target"],
    )
    result = estimate_errors(book, data["trials"], config.master_seed)
    result.config_digest = config.digest()
    return RunOutput(
        kind="di-sim",
        config=config,
        rows=_sim_rows(result, result.config_digest),
        payload={"result": result, "codebook": book},
    )


def _run_dif_sim(config: ExperimentConfig) -> RunOutput:
    data = config.data
    params = config.channel
    power = config.power
    code = build_dif_code(
        data["n"],
        params,
        power.peak,
        num_messages=data["num_messages"],
        hash_range=data["hash_range"],
        eps=data["eps"],
        constraints=power,
        seed=config.master_seed,
        tail_mass=data["tail_mass"],
    )
    inner = estimate_inner_error(code, data["inner_error_trials"], config.master_seed)
    pairs = [tuple(p) for p in data["pairs"]]
    result = estimate_dif_errors(code, pairs, data["trials"], config.master_seed)
    result.config_digest = config.digest()
    result.extras["inner_error"] = inner.estimate
    result.extras["inner_error_ci"] = [inner.ci_low, inner.ci_high]
    result.extras["hash_range"] = code.hashes.hash_range
    rows = _sim_rows(result, result.config_digest)
    rows.append(
        _value_row(result.config_digest, "inner_error", inner.estimate,
                   config.master_seed, trials=inner.trials, ci=(inner.ci_low, inner.ci_high))
    )
    return RunOutput(
        kind="dif-sim",
        config=config,
        rows=rows,
        payload={"result": result, "code": code, "inner_error": inner},
    )


def _run_measures_check(config: ExperimentConfig) -> RunOutput:
    data = config.data
    count = data["trials"]
    mu_max = data["mu_max"]
    rng = spawn(config.master_seed, "measures-check")
    closed_gap = 0.0
    sandwich_violation = 0.0
    for _ in range(count):
        mu1, mu2 = rng.uniform(0.0, mu_max, size=2)
        q1 = poisson_pmf_truncated(mu1)
        q2 = poisson_pmf_truncated(mu2)
        overlap = bhattacharyya(q1, q2)
        closed_gap = max(closed_gap, abs(overlap**2 - poisson_bhattacharyya_sq(mu1, mu2)))
        tv = tv_distance(q1, q2)
        slack = 1e-6
        sandwich_violation = max(
            sandwich_violation,
            (1.0 - overlap) - tv - slack,
            tv - math.sqrt(max(0.0, 1.0 - overlap**2)) - slack,
            0.0,
        )
    gap10 = abs(poisson_entropy_exact(10.0) - poisson_entropy_approx(10.0))
    gap100 = abs(poisson_entropy_exact(100.0) - poisson_entropy_approx(100.0))
    digest = config.digest()
    seed = config.master_seed
    rows = [
        _value_row(digest, "bhattacharyya_closed_form_gap", closed_gap, seed, trials=count),
        _value_row(digest, "sandwich_violation", sandwich_violation, seed, trials=count),
        _value_row(digest, "entropy_approx_gap_mu10", gap10, seed),
        _value_row(digest, "entropy_approx_gap_mu100", gap100, seed),
    ]
    return RunOutput(kind="measures-check", config=config, rows=rows)


_RUNNERS = {
    "bounds": _run_bounds,
    "di-sim": _run_di_sim,
    "dif-sim": _run_dif_sim,
    "measures-check": _run_measures_check,
}


def run(config: ExperimentConfig) -> RunOutput:
    """Dispatch a validated config to its pipeline."""
    return _RUNNERS[config.kind](config)


def emit_plot_data(rows: list[dict], path, fieldnames=None) -> None:
    """Write a column-oriented text table: header row, one record per row.

    Cells are JSON-encoded so :func:`read_plot_data` reproduces the values
    exactly.  ``fieldnames`` is required when ``rows`` is empty.
    """
    if fieldnames is None:
        if not rows:
            fieldnames = []
        else:
            fieldnames = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([json.dumps(row.get(name)) for name in fieldnames])


def read_plot_data(path) -> list[dict]:
    """Parse a file written by :func:`emit_plot_data`."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return []
        return [
            {name: json.loads(cell) for name, cell in zip(header, row)}
            for row in reader
        ]


def write_outputs(output: RunOutput, out_dir) -> dict[str, str]:
    """Persist a run: config.json, results.jsonl, summary.csv, meta.json,
    plus payload files (codebook, plot tables).  Returns written paths.

    Everything except meta.json is a pure function of the effective config.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {}

    config_path = out / "config.json"
    config_path.write_bytes(output.config.canonical_bytes())
    written["config"] = str(config_path)

    header = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "kind": output.kind,
        "config_digest": output.digest,
    }
    results_path = out / "results.jsonl"
    with open(results_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in output.rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    written["results"] = str(results_path)

    summary_path = out / "summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in output.rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in CSV_COLUMNS})
    written["summary"] = str(summary_path)

    for name, table in output.tables.items():
        table_path = out / f"{name}.csv"
        emit_plot_data(table, table_path)
        written[name] = str(table_path)

    if "codebook" in output.payload:
        book_path = out / "codebook.json"
        serialize.save_codebook(output.payload["codebook"], book_path)
        written["codebook"] = str(book_path)

    return written


def write_meta(out_dir, started: float, finished: float) -> str:
    """Timestamps and wall clock, kept out of the deterministic files."""
    meta = {
        "started_at": started,
        "finished_at": finished,
        "wall_clock_s": finished - started,
    }
    path = Path(out_dir) / "meta.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return str(path)


def read_results(path) -> tuple[dict, list[dict]]:
    """Load a results.jsonl file, rejecting unknown schema versions."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines:
        raise ValueError("empty results file")
    header = lines[0]
    if header.get("schema_version") != RESULT_SCHEMA_VERSION:
        raise ValueError(f"unknown result schema version {header.get('schema_version')!r}")
    return header, lines[1:]
