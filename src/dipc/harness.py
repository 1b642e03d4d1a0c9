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

from . import bounds as bounds_mod
from . import serialize
from .channel import ChannelParams, PowerConstraints
from .di_code import ConstructionStrategy, calibrate_threshold, construct_codebook, estimate_errors
from .dif_protocol import build_dif_code, dif_power_fits, estimate_dif_errors, estimate_inner_error
from .errors import ConfigError
from .measures import (
    DEFAULT_TAIL_MASS,
    bhattacharyya,
    poisson_bhattacharyya_sq,
    poisson_entropy_approx,
    poisson_entropy_exact,
    poisson_pmf_truncated,
    tv_distance,
)
from .results import result_row
from .seeding import spawn

RESULT_SCHEMA_VERSION = 1
OUT_DIR_ENV = "DIPC_OUT_DIR"

# The summary.csv columns: the keys of every result row.
CSV_COLUMNS = tuple(result_row(None, None, None, None))


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
        return serialize.channel_from_dict(self.data["channel"])

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


# Each kind's config is one field table, name -> (check, default).  A check
# maps a value to its problems (an empty list when the value is fine).  The
# default is _REQUIRED, None (an absent field stays absent), a constant, or a
# function of the fields before it.  Values are stored as given, never
# coerced, so the config digest is a function of the given values alone.
_REQUIRED = object()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """An int or float, not a bool, not NaN, within the float range."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and not math.isnan(v)
    except OverflowError:  # an int beyond the float range
        return False


def _check(test, what):
    """Check that ``test(value)`` holds; otherwise the value must be ``what``."""
    return lambda v: [] if test(v) else [f"must be {what}, got {v!r}"]


def _integer(low, bits=63):
    """An integer in [low, 2**bits); sizes and counts fit numpy's int64."""
    return _check(lambda v: _is_int(v) and low <= v < 2**bits,
                  f"an integer in [{low}, 2**{bits})")


def _number(test, what):
    return _check(lambda v: _is_number(v) and test(v), f"a number {what}")


def _list(test, what):
    return _check(lambda v: isinstance(v, list) and len(v) > 0 and all(test(x) for x in v),
                  f"a nonempty list of {what}")


def _object(table, build=None):
    """Check a nested object against its field table, then report the
    ValueError ``build`` raises on fields that do not fit together."""
    def check(value):
        if not isinstance(value, dict):
            return ["must be an object"]
        problems = _problems(table, value)
        if not problems and build is not None:
            try:
                build(value)
            except ValueError as exc:
                problems.append(str(exc))
        return problems
    return check


def _problems(table: dict, value: dict) -> list[str]:
    """Unknown, missing and malformed fields of one object."""
    unknown = sorted(set(value) - set(table), key=str)
    problems = [f"unknown fields {unknown}"] if unknown else []
    for name, (check, default) in table.items():
        if name in value:
            problems += [f"{name}: {problem}" for problem in check(value[name])]
        elif default is _REQUIRED:
            problems.append(f"{name}: required")
    return problems


# Poisson laws are summed over their support, about mean + 7*sqrt(mean)
# points, so no mean may exceed this.
_MAX_MEAN = 1e6
# Most cells one array of a run may hold: 1 GiB as float64.
_MAX_CELLS = 2**27
_POSITIVE = _number(lambda v: 0 < v < math.inf, "in (0, inf)")
_BUDGET = _number(lambda v: 0 <= v < 1, "in [0, 1)")

_CHANNEL = {
    "memory": (_integer(0), _REQUIRED),
    "hit_probs": (_list(lambda p: _is_number(p) and 0 <= p <= 1, "numbers in [0, 1]"), _REQUIRED),
    "slot_duration": (_POSITIVE, None),
    "dark_rate": (_number(lambda v: 0 <= v < math.inf, "in [0, inf)"), None),
}
_POWER = {"peak": (_POSITIVE, _REQUIRED), "average": (_POSITIVE, _REQUIRED)}

_COMMON = {
    "kind": (lambda v: [], _REQUIRED),  # selects the table
    "master_seed": (_check(lambda v: _is_int(v) and -2**127 <= v < 2**127,
                           "a signed 128-bit integer"), 0),
    "out_dir": (_check(lambda v: isinstance(v, str), "a string"), None),
}
_LINK = {
    "channel": (_object(_CHANNEL, build=serialize.channel_from_dict), _REQUIRED),
    "power": (_object(_POWER), _REQUIRED),
}


def _means_fit(d) -> bool:
    params = ExperimentConfig(d).channel
    return params.dark_rate + d["power"]["peak"] * params.slot_duration <= _MAX_MEAN


def _converse_fits(d) -> bool:
    """The converse is defined (packing radius inside the power ball) at
    every n of n_grid, once the budgets are valid; the budget rule reports
    them otherwise."""
    if "n_grid" not in d or not 0 < d["lambda1"] + d["lambda2"] < 1:
        return True
    config = ExperimentConfig(d)
    try:
        for n in d["n_grid"]:
            bounds_mod.converse_log_count(n, d["kappa"], config.channel, config.power,
                                          d["lambda1"], d["lambda2"])
    except ValueError:
        return False
    return True


_BUDGET_SUM = (lambda d: 0 < d["lambda1"] + d["lambda2"] < 1,
               "lambda1+lambda2 must lie in (0, 1), got {lambda1} + {lambda2}")
_MEANS = (_means_fit, "power: channel.dark_rate + peak * channel.slot_duration must be"
                      f" at most {_MAX_MEAN:g}")

# kind -> (field table, cross-field rules).  A rule is (test, message); the
# message is formatted with the effective config.  Rules see only configs
# whose fields all passed their checks, with every default filled in.
SCHEMAS = {
    "bounds": ({
        **_COMMON, **_LINK,
        "kappa": (_BUDGET, _REQUIRED),
        "lambda1": (_BUDGET, 0.1),
        "lambda2": (_BUDGET, 0.1),
        "n_grid": (_list(lambda n: _is_int(n) and 2 <= n < 2**63, "integers in [2, 2**63)"), None),
    }, [
        _BUDGET_SUM, _MEANS,
        (_converse_fits, "n_grid: the packing radius exceeds the power-ball radius at some n"),
    ]),
    "di-sim": ({
        **_COMMON, **_LINK,
        "n": (_integer(1), _REQUIRED),
        "trials": (_integer(1), _REQUIRED),
        "lambda1": (_BUDGET, 0.1),
        "lambda2": (_BUDGET, 0.1),
        "max_codewords": (_integer(1), 16),
        "levels": (_list(_is_number, "numbers"), None),
        "separation_scale": (_number(lambda v: 1 <= v < math.inf, ">= 1"), 1.0),
        "calibration_trials": (_integer(1000), lambda d: max(1000, d["trials"])),
        "calibration_target": (_BUDGET, lambda d: d["lambda1"]),
    }, [
        _BUDGET_SUM, _MEANS,
        (lambda d: all(0 <= v <= d["power"]["peak"] for v in d.get("levels", ())),
         "levels: every value must lie in [0, power.peak={power[peak]}]"),
        # the largest array: one codeword's calibration or estimation draws
        (lambda d: max(d["trials"], d["calibration_trials"]) * (d["n"] + d["channel"]["memory"])
         <= _MAX_CELLS,
         f"trials: max(trials, calibration_trials) * (n + channel.memory) must be at most"
         f" {_MAX_CELLS:,}"),
    ]),
    "dif-sim": ({
        **_COMMON, **_LINK,
        "n": (_integer(1), _REQUIRED),
        "trials": (_integer(1), _REQUIRED),
        "eps": (_number(lambda v: v > 0, "in (0, inf]"), 0.2),
        "lambda2": (_number(lambda v: 0 < v < 1, "in (0, 1)"), 0.1),
        # the next power of two of 2/lambda2: collisions spend half the Type II budget
        "hash_range": (_integer(1), lambda d: 2 ** math.ceil(math.log2(2.0 / d["lambda2"]))),
        "num_messages": (_integer(1, bits=128), lambda d: 2 * d["hash_range"]),
        "pairs": (_list(lambda p: isinstance(p, list) and len(p) == 2 and p[0] != p[1]
                        and all(_is_int(v) and 0 <= v < 2**128 for v in p),
                        "[sent, tested] message index pairs, sent != tested"),
                  lambda d: [[0, 1], [1, 0]]),
        "inner_error_trials": (_integer(1), lambda d: d["trials"]),
        "tail_mass": (_number(lambda v: 0 < v < 1, "in (0, 1)"), DEFAULT_TAIL_MASS),
    }, [
        _MEANS,
        (lambda d: d["n"] > d["channel"]["memory"],
         "n: the pilot needs a full block, n >= channel.memory + 1, got {n}"),
        (lambda d: d["hash_range"] <= d["num_messages"],
         "hash_range: must not exceed num_messages={num_messages}, got {hash_range}"),
        # hash_range <= 2**ceil(sqrt(n)), the count of inner codewords, unbuilt
        (lambda d: (d["hash_range"] - 1).bit_length() <= math.ceil(math.sqrt(d["n"])),
         "hash_range: at most 2**ceil(sqrt(n)) inner codewords exist, got {hash_range}"),
        (lambda d: all(i < d["num_messages"] for p in d["pairs"] for i in p),
         "pairs: a message index lies outside [0, {num_messages})"),
        (lambda d: dif_power_fits(d["n"], d["channel"]["memory"], d["hash_range"],
                                  d["power"]["peak"], ExperimentConfig(d).power),
         "power: average too small for the pilot plus the heaviest inner codeword"),
        # the largest arrays: the phase-2 intensity table and the phase-1 pilot
        (lambda d: d["hash_range"] * (math.ceil(math.sqrt(d["n"])) + d["channel"]["memory"])
         <= _MAX_CELLS and d["n"] <= _MAX_CELLS,
         f"n: hash_range * (ceil(sqrt(n)) + channel.memory) and n must be at most {_MAX_CELLS:,}"),
    ]),
    "measures-check": ({
        **_COMMON,
        "trials": (_integer(1), 1000),
        "mu_max": (_number(lambda v: 0 <= v <= _MAX_MEAN, f"in [0, {_MAX_MEAN:g}]"), 50.0),
    }, []),
}
KINDS = tuple(SCHEMAS)


def validate_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict, apply defaults, and return the effective
    config.  Raises :class:`ConfigError` listing every violation found:
    first every malformed field, then, once all fields are well formed,
    every broken cross-field rule."""
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError([f"kind: must be one of {list(KINDS)}, got {kind!r}"])
    fields, rules = SCHEMAS[kind]
    violations = _problems(fields, raw)
    if violations:
        raise ConfigError(violations)
    data = dict(raw)
    for name, (_, default) in fields.items():
        if name in data or default is None or default is _REQUIRED:
            continue
        try:
            data[name] = default(data) if callable(default) else default
        except ArithmeticError:  # e.g. 2/lambda2 overflows
            raise ConfigError([f"{name}: cannot be derived from the other fields"]) from None
    violations = [message.format(**data) for test, message in rules if not test(data)]
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


def _run_bounds(config: ExperimentConfig) -> RunOutput:
    data = config.data
    params = config.channel
    power = config.power
    report = bounds_mod.bound_report(data["kappa"], params, power.peak)
    digest = config.digest()
    seed = config.master_seed
    rows = [
        result_row(digest, "kappa", report.kappa, seed),
        result_row(digest, "di_lower", report.di_lower, seed),
        result_row(digest, "di_upper", report.di_upper, seed),
        result_row(digest, "dif_lower_exact", report.dif_lower_exact, seed),
        result_row(digest, "dif_lower_asymptotic", report.dif_lower_asymptotic, seed),
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
        rows=result.rows(),
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
    rows = result.rows()
    rows.append(
        result_row(result.config_digest, "inner_error", inner.estimate,
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
        result_row(digest, "bhattacharyya_closed_form_gap", closed_gap, seed, trials=count),
        result_row(digest, "sandwich_violation", sandwich_violation, seed, trials=count),
        result_row(digest, "entropy_approx_gap_mu10", gap10, seed),
        result_row(digest, "entropy_approx_gap_mu100", gap100, seed),
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
