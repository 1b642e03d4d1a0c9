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
from dataclasses import asdict, dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from . import bounds as bounds_mod
from . import serialize
from .channel import ChannelParams, PowerConstraints
from .di_code import DICodebook, calibrate_threshold, construct_codebook, estimate_errors
from .dif_protocol import build_dif_code, dif_power_fits, estimate_dif_errors, estimate_inner_error
from .errors import ConfigError
from .measures import DEFAULT_TAIL_MASS, MAX_MEAN
from .results import result_row
from .serialize import (_BUDGET, _LINK, _REQUIRED, _check, _integer, _is_int, _is_number, _list,
                        _number, _problems)

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


# Most cells one array of a run may hold: 1 GiB as float64.
_MAX_CELLS = 2**27

# Each kind's config is one field table (see serialize), starting with these.
_COMMON = {
    "kind": (lambda v: [], _REQUIRED),  # selects the table
    "master_seed": (_check(lambda v: _is_int(v) and -2**127 <= v < 2**127,
                           "a signed 128-bit integer"), 0),
    "out_dir": (_check(lambda v: isinstance(v, str), "a string"), None),
    **_LINK,
}


def _means_fit(d) -> bool:
    params = ExperimentConfig(d).channel
    return params.dark_rate + d["power"]["peak"] * params.slot_duration <= MAX_MEAN


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
                      f" at most {MAX_MEAN:g}")

# kind -> (field table, cross-field rules besides _MEANS).  A rule is (test,
# message); the message is formatted with the effective config.  Rules see
# only configs whose fields all passed their checks, with defaults filled in.
SCHEMAS = {
    "bounds": ({
        **_COMMON,
        "kappa": (_BUDGET, _REQUIRED),
        "lambda1": (_BUDGET, 0.1),
        "lambda2": (_BUDGET, 0.1),
        "n_grid": (_list(lambda n: _is_int(n) and 2 <= n < 2**63, "integers in [2, 2**63)"), None),
    }, [
        _BUDGET_SUM,
        (_converse_fits, "n_grid: the packing radius exceeds the power-ball radius at some n"),
    ]),
    "di-sim": ({
        **_COMMON,
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
        _BUDGET_SUM,
        (lambda d: all(0 <= v <= d["power"]["peak"] for v in d.get("levels", ())),
         "levels: every value must lie in [0, power.peak={power[peak]}]"),
        # the largest array: one codeword's calibration or estimation draws
        (lambda d: max(d["trials"], d["calibration_trials"]) * (d["n"] + d["channel"]["memory"])
         <= _MAX_CELLS,
         f"trials: max(trials, calibration_trials) * (n + channel.memory) must be at most"
         f" {_MAX_CELLS:,}"),
    ]),
    "dif-sim": ({
        **_COMMON,
        "n": (_integer(1), _REQUIRED),
        "trials": (_integer(1), _REQUIRED),
        "eps": (_number(lambda v: v > 0, "in (0, inf]"), 0.2),
        "lambda2": (_number(lambda v: 0 < v < 1, "in (0, 1)"), 0.1),
        # the next power of two of 2/lambda2: collisions spend half the Type II budget
        "hash_range": (_integer(1), lambda d: 2 ** math.ceil(math.log2(2.0 / d["lambda2"]))),
        "num_messages": (_integer(1, bits=128), lambda d: 2 * d["hash_range"]),
        # a sender's index is a signed 128-bit seed part of its streams
        "pairs": (_list(lambda p: isinstance(p, list) and len(p) == 2 and p[0] != p[1]
                        and all(_is_int(v) and 0 <= v < 2**b for v, b in zip(p, (127, 128))),
                        "[sent, tested] index pairs in [0, 2**127) x [0, 2**128), sent != tested"),
                  lambda d: [[0, 1], [1, 0]]),
        "inner_error_trials": (_integer(1), lambda d: d["trials"]),
        "tail_mass": (_number(lambda v: 0 < v < 1, "in (0, 1)"), DEFAULT_TAIL_MASS),
    }, [
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
                                  ExperimentConfig(d).power),
         "power: average too small for the pilot plus the heaviest inner codeword"),
        # the largest arrays: the phase-2 intensity table and the phase-1 pilot
        (lambda d: d["hash_range"] * (math.ceil(math.sqrt(d["n"])) + d["channel"]["memory"])
         <= _MAX_CELLS and d["n"] <= _MAX_CELLS,
         f"n: hash_range * (ceil(sqrt(n)) + channel.memory) and n must be at most {_MAX_CELLS:,}"),
    ]),
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
    violations = [message.format(**data) for test, message in (_MEANS, *rules) if not test(data)]
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(data)


@dataclass
class RunOutput:
    """Everything a run writes: result rows, plot tables and the di-sim codebook."""

    config: ExperimentConfig
    rows: list[dict]
    tables: dict[str, list[dict]] = field(default_factory=dict)
    codebook: DICodebook | None = None

    @property
    def digest(self) -> str:
        return self.config.digest()


def _run_bounds(config: ExperimentConfig) -> RunOutput:
    data = config.data
    params = config.channel
    power = config.power
    report = bounds_mod.bound_report(data["kappa"], params, power.peak)
    digest = config.digest()
    rows = [result_row(digest, name, value, config.master_seed)
            for name, value in asdict(report).items()]
    tables = {}
    if "n_grid" in data:
        tables["converse_trend"] = [
            asdict(bounds_mod.converse_log_count(n, data["kappa"], params, power,
                                                 data["lambda1"], data["lambda2"]))
            for n in data["n_grid"]
        ]
    return RunOutput(config=config, rows=rows, tables=tables)


def _run_di_sim(config: ExperimentConfig) -> RunOutput:
    data = config.data
    book = construct_codebook(
        data["n"], config.channel, config.power, data["lambda1"], data["lambda2"],
        data["max_codewords"], levels=data.get("levels"),
        separation_scale=data["separation_scale"], seed=config.master_seed,
    )
    calibrate_threshold(
        book, data["calibration_trials"], config.master_seed,
        target=data["calibration_target"],
    )
    result = estimate_errors(book, data["trials"], config.master_seed)
    return RunOutput(config=config, rows=result.rows(config.digest()), codebook=book)


def _run_dif_sim(config: ExperimentConfig) -> RunOutput:
    data = config.data
    code = build_dif_code(
        data["n"],
        config.channel,
        config.power,
        num_messages=data["num_messages"],
        hash_range=data["hash_range"],
        eps=data["eps"],
        seed=config.master_seed,
        tail_mass=data["tail_mass"],
    )
    inner = estimate_inner_error(code, data["inner_error_trials"], config.master_seed)
    pairs = [tuple(p) for p in data["pairs"]]
    result = estimate_dif_errors(code, pairs, data["trials"], config.master_seed)
    digest = config.digest()
    rows = result.rows(digest)
    rows.append(result_row(digest, "inner_error", inner.estimate, config.master_seed,
                           trials=inner.trials, ci=(inner.ci_low, inner.ci_high)))
    return RunOutput(config=config, rows=rows)


_RUNNERS = {
    "bounds": _run_bounds,
    "di-sim": _run_di_sim,
    "dif-sim": _run_dif_sim,
}


def run(config: ExperimentConfig) -> RunOutput:
    """Dispatch a validated config to its pipeline."""
    return _RUNNERS[config.kind](config)


def emit_plot_data(rows: list[dict], path) -> None:
    """Write a column-oriented text table: header row, one record per row.

    Cells are JSON-encoded so :func:`read_plot_data` reproduces the values
    exactly.  The header is the first row's keys, empty when there are no rows.
    """
    fieldnames = list(rows[0]) if rows else []
    with serialize.atomic_open(path, newline="") as fh:
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


# The result row schema: every row holds exactly the CSV_COLUMNS keys, and
# every value is a str, int, float or None.  results.jsonl lists the keys
# sorted, as json.dumps(row, sort_keys=True) does.
_JSON_KEYS = tuple(sorted(CSV_COLUMNS))
_JSON_PREFIXES = [("{" if k == 0 else ", ") + f'"{key}": ' for k, key in enumerate(_JSON_KEYS)]
_CSV_ORDER = [_JSON_KEYS.index(key) for key in CSV_COLUMNS]
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _each_distinct(values, encode) -> list[str]:
    """``[encode(v) for v in values]``, calling ``encode`` once per distinct value."""
    texts = {value: encode(value) for value in set(values)}
    return list(map(texts.__getitem__, values))


def _floats(values):
    # float.__repr__ is what json and csv both print.  0.0 and -0.0 are one
    # dict key but print differently, so a column holding zeros prints each.
    texts = (list(map(float.__repr__, values)) if 0.0 in values
             else _each_distinct(values, float.__repr__))
    return list(map(_JSON_NONFINITE.get, texts, texts)), texts


def _ints(values):
    texts = _each_distinct(values, int.__repr__)
    return texts, texts


def _nones(values):
    return ["null"] * len(values), [""] * len(values)


def _csv_field(text: str) -> str:
    """csv's QUOTE_MINIMAL: quote a field holding the delimiter, the quote
    character or a line break, and double its quote characters."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _strs(values):
    return _each_distinct(values, encode_basestring_ascii), _each_distinct(values, _csv_field)


_ENCODERS = {float: _floats, int: _ints, type(None): _nones, str: _strs}


def _encode_column(values) -> tuple[list[str], list[str]]:
    """The JSON and CSV texts of one column's values, the values of each
    type encoded together."""
    kinds = set(map(type, values))
    unknown = kinds - _ENCODERS.keys()
    if unknown:
        raise TypeError(f"a result value must be a str, int, float or None,"
                        f" not {unknown.pop().__name__}")
    if len(kinds) == 1:
        return _ENCODERS[kinds.pop()](values)
    json_texts, csv_texts = [None] * len(values), [None] * len(values)
    for kind in kinds:
        at = [k for k, value in enumerate(values) if type(value) is kind]
        for k, json_text, csv_text in zip(at, *_ENCODERS[kind]([values[k] for k in at])):
            json_texts[k], csv_texts[k] = json_text, csv_text
    return json_texts, csv_texts


def _encode_rows(rows: list[dict]) -> tuple[list[str], list[str]]:
    """The results.jsonl and summary.csv lines of one or more result rows.

    Each line is byte for byte what ``json.dumps(row, sort_keys=True)`` and
    ``csv.DictWriter`` (a None written as an empty cell) give, but every
    value is formatted once for both files, a column at a time.  Raises
    ValueError on a row with other keys and TypeError on a value of another
    type.
    """
    if set(map(len, rows)) != {len(_JSON_KEYS)}:
        raise ValueError(f"a result row must hold exactly the keys {list(CSV_COLUMNS)}")
    columns = zip(*map(itemgetter(*_JSON_KEYS), rows))
    json_columns, csv_columns = zip(*map(_encode_column, columns))
    # each JSON line joins, per key, its constant prefix and the row's text
    parts = [part for prefix, texts in zip(_JSON_PREFIXES, json_columns)
             for part in (repeat(prefix), texts)]
    json_lines = list(map("".join, zip(*parts, repeat("}\n"))))
    csv_lines = [",".join(cells) + "\r\n" for cells in zip(*(csv_columns[k] for k in _CSV_ORDER))]
    return json_lines, csv_lines


# Rows encoded and written at a time: all rows' lines at once would raise a
# di-sim run's peak memory by megabytes.
_ROWS_PER_WRITE = 512

# Files only some runs write.  A run deletes those it does not write, so a
# reused output directory never mixes two runs' files.
_KIND_FILES = ("codebook.json", "converse_trend.csv")


def write_outputs(output: RunOutput, out_dir) -> dict[str, str]:
    """Persist a run: config.json, results.jsonl, summary.csv, plus the
    codebook and plot tables.  Returns written paths.

    Everything written is a pure function of the effective config.  Each
    file is replaced whole (:func:`serialize.atomic_open`).  meta.json is
    deleted first, so that :func:`write_meta`, called once every file is
    written, marks a complete run.  Of the kind-specific files, those this
    run does not write are deleted; no other file in ``out_dir`` is touched.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "meta.json").unlink(missing_ok=True)
    written = {"config": str(out / "config.json"), "results": str(out / "results.jsonl"),
               "summary": str(out / "summary.csv")}
    header = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "kind": output.config.kind,
        "config_digest": output.digest,
    }
    rows = output.rows
    # the rows first, so that a row the encoder rejects replaces no file
    with serialize.atomic_open(written["results"], newline="") as results, \
            serialize.atomic_open(written["summary"], newline="") as summary:
        results.write(json.dumps(header, sort_keys=True) + "\n")
        summary.write(",".join(CSV_COLUMNS) + "\r\n")
        for start in range(0, len(rows), _ROWS_PER_WRITE):
            json_lines, csv_lines = _encode_rows(rows[start:start + _ROWS_PER_WRITE])
            results.writelines(json_lines)
            summary.writelines(csv_lines)
    with serialize.atomic_open(written["config"], newline="") as fh:
        fh.write(output.config.canonical_bytes().decode())

    for name, table in output.tables.items():
        written[name] = str(out / f"{name}.csv")
        emit_plot_data(table, written[name])

    if output.codebook is not None:
        written["codebook"] = str(out / "codebook.json")
        serialize.save_codebook(output.codebook, written["codebook"])

    kept = {Path(path).name for path in written.values()}
    for name in _KIND_FILES:
        if name not in kept:
            (out / name).unlink(missing_ok=True)
    return written


def write_meta(out_dir, started: float, finished: float) -> str:
    """Timestamps and wall clock, kept out of the deterministic files and
    written last: a directory with meta.json holds one complete run."""
    meta = {
        "started_at": started,
        "finished_at": finished,
        "wall_clock_s": finished - started,
    }
    path = Path(out_dir) / "meta.json"
    with serialize.atomic_open(path) as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return str(path)


def read_results(path) -> tuple[dict, list[dict]]:
    """Load a results.jsonl file, rejecting unknown schema versions and
    lines that are not JSON objects."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"line {number}: expected a JSON object,"
                                 f" got {type(record).__name__}")
            records.append(record)
    if not records:
        raise ValueError("empty results file")
    header = records[0]
    if header.get("schema_version") != RESULT_SCHEMA_VERSION:
        raise ValueError(f"unknown result schema version {header.get('schema_version')!r}")
    return header, records[1:]
