import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dipc
from dipc import (ChannelParams, DICodebook, PowerConstraints, construct_codebook,
                  converse_log_count, decode_identify)
from dipc.cli import main as cli_main
from dipc.errors import ConfigError
from dipc import harness
from dipc.harness import (
    CSV_COLUMNS,
    OUT_DIR_ENV,
    read_results,
    run,
    validate_config,
    write_meta,
    write_outputs,
)
from dipc.results import ErrorEstimate, result_row, wilson_interval
from dipc import serialize

CHANNEL = {"memory": 2, "hit_probs": [0.6, 0.3, 0.1], "slot_duration": 1.0, "dark_rate": 0.1}
POWER = {"peak": 5.0, "average": 5.0}


def bounds_config(**extra):
    cfg = {"kind": "bounds", "channel": dict(CHANNEL), "power": dict(POWER), "kappa": 0.0}
    cfg.update(extra)
    return cfg


def di_config(**extra):
    cfg = {
        "kind": "di-sim",
        "channel": dict(CHANNEL),
        "power": {"peak": 10.0, "average": 10.0},
        "n": 12,
        "trials": 300,
        "max_codewords": 3,
        "calibration_trials": 1000,
        "master_seed": 5,
    }
    cfg.update(extra)
    return cfg


def dif_config(**extra):
    cfg = {
        "kind": "dif-sim",
        "channel": dict(CHANNEL),
        "power": dict(POWER),
        "n": 30,
        "trials": 60,
        "hash_range": 4,
        "num_messages": 8,
        "inner_error_trials": 50,
        "master_seed": 2,
    }
    cfg.update(extra)
    return cfg



class TestWilson:
    def test_zero_successes_upper_bound_positive(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0 < hi < 0.01

    def test_interval_contains_estimate(self):
        for k, n in [(0, 10), (3, 17), (500, 1000), (10, 10)]:
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi

    def test_estimate_dataclass(self):
        est = ErrorEstimate(7, 100)
        assert est.estimate == 0.07
        assert est.ci_low <= 0.07 <= est.ci_high

    def test_invalid(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    # each used to return an interval for a successes count no trial can give
    @pytest.mark.parametrize("successes", [0.5, True, 1.5, -1, 4, "1", None])
    def test_successes_must_be_an_integer_in_range(self, successes):
        with pytest.raises(ValueError, match="^successes must be an integer >= 0 and below 4"):
            wilson_interval(successes, 3)
        with pytest.raises(ValueError, match="^successes must be an integer >= 0 and below 4"):
            ErrorEstimate(successes, 3)


class TestValidation:
    def test_valid_bounds_config(self):
        config = validate_config(bounds_config())
        assert config["kind"] == "bounds"
        assert config["master_seed"] == 0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "nope"})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError) as err:
            validate_config(bounds_config(surprise=1))
        assert any("unknown fields" in v for v in err.value.violations)

    def test_all_violations_enumerated(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"kind": "di-sim", "trials": 0, "n": -1})
        joined = "\n".join(err.value.violations)
        assert "channel" in joined and "power" in joined
        assert "n:" in joined and "trials" in joined
        assert len(err.value.violations) >= 4

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(di_config(trials=0))

    def test_budget_sum_checked(self):
        with pytest.raises(ConfigError):
            validate_config(di_config(lambda1=0.6, lambda2=0.5))

    def test_nested_channel_errors_reported(self):
        bad = bounds_config()
        bad["channel"]["hit_probs"] = [0.5, 0.2, 0.1]
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert any("sum to 1" in v for v in err.value.violations)

    @pytest.mark.parametrize("scale", ["x", -1, 0.5, True, None, [2]])
    def test_separation_scale_must_be_a_number_at_least_one(self, scale):
        with pytest.raises(ConfigError) as exc:
            validate_config(di_config(separation_scale=scale))
        assert any(v.startswith("separation_scale:") for v in exc.value.violations)

    @pytest.mark.parametrize("scale", [1, 1.0, 2.5])
    def test_separation_scale_at_least_one_accepted(self, scale):
        assert validate_config(di_config(separation_scale=scale))["separation_scale"] == scale

    def test_dif_pair_indices_checked(self):
        cfg = {
            "kind": "dif-sim",
            "channel": dict(CHANNEL),
            "power": dict(POWER),
            "n": 30,
            "trials": 10,
            "hash_range": 4,
            "num_messages": 4,
            "pairs": [[0, 7]],
        }
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert any("outside" in v for v in err.value.violations)


class TestRunBounds:
    def test_bound_endpoints_in_rows(self):
        out = run(validate_config(bounds_config()))
        values = {row["metric"]: row["estimate"] for row in out.rows}
        assert values["di_lower"] == 0.25
        assert values["di_upper"] == 0.5

    def test_converse_trend_table(self):
        out = run(validate_config(bounds_config(kappa=0.25, n_grid=[64, 256])))
        trend = {(row["metric"], row["message_i"]): row["estimate"] for row in out.rows
                 if row["metric"].startswith("converse_")}
        assert sorted(trend) == [(f"converse_{name}", n) for name in
                                 ("bits", "memory", "normalized", "slack_bits") for n in (64, 256)]
        assert trend["converse_normalized", 64] > trend["converse_normalized", 256]

    def test_converse_rows_read_back_exactly(self, tmp_path):
        cfg = validate_config(bounds_config(kappa=0.25, n_grid=[64, 256]))
        _, rows = read_results(write_outputs(run(cfg), tmp_path)["results"])
        params, power = harness._link(cfg)
        digest = harness.config_digest(cfg)
        for n in (64, 256):
            expected = asdict(converse_log_count(n, 0.25, params, power, 0.1, 0.1))
            assert expected.pop("n") == n
            read = {row["metric"]: row for row in rows if row["message_i"] == n}
            assert read == {f"converse_{name}": result_row(digest, f"converse_{name}", value, 0, i=n)
                            for name, value in expected.items()}
            assert all(type(row["estimate"]) is type(expected[name.removeprefix("converse_")])
                       for name, row in read.items())
            assert type(read["converse_memory"]["estimate"]) is int


class TestDeterminism:
    def test_identical_config_reproduces_bytes(self, tmp_path):
        cfg = validate_config(di_config())
        out1 = run(cfg)
        out2 = run(validate_config(di_config()))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_outputs(out1, d1)
        write_outputs(out2, d2)
        for name in ("results.jsonl", "summary.csv", "config.json", "codebook.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_different_seed_changes_rows(self):
        out1 = run(validate_config(di_config(master_seed=5)))
        out2 = run(validate_config(di_config(master_seed=6)))
        assert out1.rows != out2.rows

    def test_out_dir_does_not_affect_results(self, tmp_path):
        out1 = run(validate_config(di_config(out_dir="somewhere")))
        out2 = run(validate_config(di_config(out_dir="elsewhere")))
        assert harness.config_digest(out1.config) == harness.config_digest(out2.config)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_outputs(out1, d1)
        write_outputs(out2, d2)
        assert (d1 / "results.jsonl").read_bytes() == (d2 / "results.jsonl").read_bytes()

    def test_digest_matches_written_config(self, tmp_path):
        cfg = validate_config(bounds_config())
        out = run(cfg)
        files = write_outputs(out, tmp_path / "o")
        digest = hashlib.sha256(Path(files["config"]).read_bytes()).hexdigest()
        assert digest == harness.config_digest(out.config)
        header, _ = read_results(files["results"])
        assert header["config_digest"] == digest


class TestSimKinds:
    def test_di_sim_estimates_within_unit_interval(self):
        out = run(validate_config(di_config()))
        assert {row["metric"] for row in out.rows} == {"type1", "type2"}
        for row in out.rows:
            assert 0.0 <= row["ci_low"] <= row["estimate"] <= row["ci_high"] <= 1.0

    def test_dif_sim_smoke(self):
        cfg = validate_config(
            {
                "kind": "dif-sim",
                "channel": dict(CHANNEL),
                "power": dict(POWER),
                "n": 30,
                "trials": 60,
                "hash_range": 4,
                "num_messages": 8,
                "inner_error_trials": 50,
                "master_seed": 2,
            }
        )
        out = run(cfg)
        keys = {(row["metric"], row["message_i"], row["message_j"]) for row in out.rows}
        assert keys == {("type1", 0, None), ("type1", 1, None), ("type2", 0, 1),
                        ("type2", 1, 0), ("inner_error", None, None)}

    def test_largest_sent_and_tested_indices_run(self):
        top = 2**127 - 1
        out = run(validate_config(dif_config(num_messages=2**128 - 1, trials=5,
                                             pairs=[[top, 2**128 - 2]])))
        assert {(row["metric"], row["message_i"], row["message_j"]) for row in out.rows} == {
            ("type1", top, None), ("type2", top, 2**128 - 2), ("inner_error", None, None)}


class TestResultFiles:
    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps({"schema_version": 99}) + "\n")
        with pytest.raises(ValueError):
            read_results(path)

    HEADER = json.dumps({"config_digest": "d", "kind": "bounds", "schema_version": 1})

    # documents whose non-object lines raised AttributeError or came back as
    # rows, and one whose unparsable line was named by the parser's position
    @pytest.mark.parametrize("lines, message", [
        (["[1]"], "line 1: expected a JSON object, got list"),
        ([HEADER, "", '{"metric": "kappa"}', "[1, 2]"], "line 4: expected a JSON object, got list"),
        ([HEADER, '"row"'], "line 2: expected a JSON object, got str"),
        ([HEADER, '{"metric": "kappa"}', "{"], "line 3: Expecting property name"),
        # the column within the line, parsed without its newline
        ([HEADER, "{"], "line 2: Expecting property name enclosed in double quotes (column 2)"),
        ([HEADER, '{"a": 1} x'], "line 2: Extra data (column 10)"),
    ])
    def test_non_object_line_rejected(self, tmp_path, lines, message):
        path = tmp_path / "results.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(message)) as info:
            read_results(path)
        assert str(info.value).count("line") == 1

    def test_too_deep_line_raises_value_error(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(self.HEADER + "\n" + "[" * 100_000 + "\n")
        with pytest.raises(ValueError, match="JSON nested too deeply"):
            read_results(path)

    def test_summary_columns(self, tmp_path):
        out = run(validate_config(bounds_config()))
        files = write_outputs(out, tmp_path / "o")
        header = Path(files["summary"]).read_text().splitlines()[0]
        assert header == "config_digest,metric,message_i,message_j,estimate,ci_low,ci_high,trials,seed"


# Values of every type a result row may hold, at their edges: 128-bit
# message indices, signed zeros, subnormals, non-finite floats, and strings
# that csv must quote or json must escape.
row_values = (
    st.none()
    | st.integers(-2**127, 2**128)
    | st.floats()
    | st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e16, math.nan,
                       math.inf, -math.inf])
    | st.text(st.sampled_from(',"\r\n \'\\\x00\x7fé€😀') | st.characters(), max_size=8)
)
result_rows = st.lists(st.fixed_dictionaries({key: row_values for key in CSV_COLUMNS}),
                       min_size=1, max_size=6)


def reference_lines(rows):
    """The lines the general-purpose json and csv writers give for ``rows``."""
    json_lines, csv_lines = [], []
    for row in rows:
        json_lines.append(json.dumps(row, sort_keys=True) + "\n")
        buffer = io.StringIO(newline="")
        csv.DictWriter(buffer, fieldnames=CSV_COLUMNS).writerow(
            {k: "" if v is None else v for k, v in row.items()})
        csv_lines.append(buffer.getvalue())
    return json_lines, csv_lines


class TestRowEncoder:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(rows=result_rows)
    def test_lines_match_json_and_csv(self, rows):
        assert harness._encode_rows(rows) == reference_lines(rows)

    @pytest.mark.parametrize("value", [True, np.float64(0.5), np.int64(3), [1], b"x"])
    def test_other_value_types_rejected(self, value):
        row = {key: None for key in CSV_COLUMNS}
        rows = [dict(row), {**row, "estimate": value}]
        with pytest.raises(TypeError, match=type(value).__name__):
            harness._encode_rows(rows)

    def test_other_keys_rejected(self):
        row = {key: 1 for key in CSV_COLUMNS}
        with pytest.raises(ValueError, match="exactly the keys"):
            harness._encode_rows([row, {**row, "extra": 1}])

    def test_files_span_several_writes(self, tmp_path):
        config = validate_config(bounds_config())
        digest = harness.config_digest(config)
        rows = [result_row(digest, "type2", k / 7, 3, 1000, k, k + 1, (0.0, k * 1e-3))
                for k in range(2 * harness._ROWS_PER_WRITE + 1)]
        files = write_outputs(harness.RunOutput(config, rows), tmp_path)
        json_lines, csv_lines = reference_lines(rows)
        with open(files["results"], encoding="utf-8", newline="") as fh:
            assert fh.readlines()[1:] == json_lines
        with open(files["summary"], encoding="utf-8", newline="") as fh:
            assert fh.read() == ",".join(CSV_COLUMNS) + "\r\n" + "".join(csv_lines)

    def test_run_rows_match_json_and_csv(self):
        for cfg in (di_config(), dif_config(), bounds_config(kappa=0),
                    bounds_config(kappa=0.25, n_grid=[64, 256])):
            rows = run(validate_config(cfg)).rows
            assert harness._encode_rows(rows) == reference_lines(rows)


# sha256 of every file write_outputs writes, taken before the row encoder
# and the atomic writes replaced json.dumps, csv.DictWriter and in-place
# writes.  The bounds results.jsonl and summary.csv were re-taken when the
# converse trend became converse_<field> rows; test_run_rows_match_json_and_csv
# checks those rows against the json.dumps/csv.DictWriter reference.  The
# bench reference pins only summary.csv.
GOLDEN = {
    "di-sim": (di_config(), {
        "config.json": "fc13d58d90324c1c6b8c1742f898435e823eba7e4eaa8bbcc06916a8e137a28a",
        "results.jsonl": "2172ef01ab73fcb20790b84f19b4b3f906b4225dabf62f59430742dd7d3a9006",
        "summary.csv": "bf91abe832e16d57c42ed7e69a3eefbbf38a5fe2b6b393482fa6b869e58542b9",
        "codebook.json": "7266ba02c08304a02df0f7e7c9a7fe54842b49ce0dd38a02484757a3635f65a4",
    }),
    "dif-sim": (dif_config(), {
        "config.json": "d63192def9d18fa640a1c52d59c31c77949ce6c2fee628abf69250bd277a4d37",
        "results.jsonl": "bc282ca5182f12c796d684e260f3aa0cc335d2f2c3a86e235ddefa5009059141",
        "summary.csv": "4432cff6b182114de372b2e4ed1a9f7d6f71c30df7643faa208267c24179b489",
    }),
    "bounds": (bounds_config(kappa=0.25, n_grid=[64, 256]), {
        "config.json": "5c92a1c897998e2e3518c3ca9c3b491fb3c4a98df86a6bd46d322ad0a331900f",
        "results.jsonl": "929738d8bc271473f38e8b927a9ff0c633b0c3b6396324f1502968e7cd5220f8",
        "summary.csv": "0839984cbc3f0b4a48122f31ec1c0e967a64cd42eea63893eea9927bf465b3e9",
    }),
}


def file_bytes(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestWrittenFiles:
    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_golden_bytes(self, kind, tmp_path):
        cfg, digests = GOLDEN[kind]
        written = write_outputs(run(validate_config(cfg)), tmp_path)
        assert {os.path.basename(path) for path in written.values()} == set(digests)
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in file_bytes(tmp_path).items()} == digests

    @pytest.fixture(scope="class")
    def two_runs(self):
        return run(validate_config(di_config())), run(validate_config(di_config(master_seed=6)))

    def rewrite(self, tmp_path, two_runs):
        """(the old run's files, the new run's files, the directory holding
        the complete old run, meta.json included) for a rewrite to fail in."""
        old_run, new_run = two_runs
        target, fresh = tmp_path / "target", tmp_path / "fresh"
        write_outputs(old_run, target)
        write_meta(target, 0.0, 1.0)
        write_outputs(new_run, fresh)
        return file_bytes(target), file_bytes(fresh), target

    def check_whole(self, target, old, new):
        now = file_bytes(target)
        assert "meta.json" not in now
        assert set(now) == set(old) - {"meta.json"}  # no temp file left behind
        for name, data in now.items():
            assert data in (old[name], new[name]), name
        return now

    # a di-sim write replaces config.json, results.jsonl, summary.csv, codebook.json
    @pytest.mark.parametrize("fail_at", range(4))
    def test_failed_replace_leaves_whole_files(self, tmp_path, two_runs, monkeypatch, fail_at):
        old, new, target = self.rewrite(tmp_path, two_runs)
        replaced = []

        def replace(src, dst):
            if len(replaced) == fail_at:
                raise OSError("disk full")
            replaced.append(os.path.basename(dst))
            os.rename(src, dst)

        monkeypatch.setattr(serialize.os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            write_outputs(two_runs[1], target)
        now = self.check_whole(target, old, new)
        renewed = [name for name in now if now[name] == new[name] != old[name]]
        assert sorted(renewed) == sorted(replaced)

    def test_failure_inside_a_file_leaves_the_old_file(self, tmp_path, two_runs, monkeypatch):
        old, new, target = self.rewrite(tmp_path, two_runs)
        atomic_open = serialize.atomic_open

        @contextlib.contextmanager
        def fail_in_codebook(path, newline=None):
            with atomic_open(path, newline) as fh:
                if os.path.basename(path) == "codebook.json":
                    fh.write('{\n  "channel": ')
                    raise OSError("disk full")
                yield fh

        monkeypatch.setattr(serialize, "atomic_open", fail_in_codebook)
        with pytest.raises(OSError, match="disk full"):
            write_outputs(two_runs[1], target)
        now = self.check_whole(target, old, new)
        assert now["codebook.json"] == old["codebook.json"]
        assert now["results.jsonl"] == new["results.jsonl"]

    def test_failed_encoding_writes_nothing(self, tmp_path, two_runs, monkeypatch):
        old, new, target = self.rewrite(tmp_path, two_runs)
        monkeypatch.setattr(harness, "_encode_rows", lambda rows: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            write_outputs(two_runs[1], target)
        now = self.check_whole(target, old, new)
        assert now == {name: data for name, data in old.items() if name != "meta.json"}


# Files json cannot read: not UTF-8, and nested deeper than the parser recurses.
UNREADABLE_JSON = {"not-utf8": b"\xff\xfe{}", "nested-too-deep": b"[" * 100_000}


def small_book():
    return construct_codebook(12, ChannelParams(**CHANNEL),
                              PowerConstraints(peak=10.0, average=10.0), 0.1, 0.1,
                              max_codewords=3, seed=5)


class TestSerialization:
    def test_codebook_round_trip(self, tmp_path):
        out = run(validate_config(di_config()))
        book = out.codebook
        path = tmp_path / "book.json"
        serialize.save_codebook(book, path)
        loaded = serialize.load_codebook(path)
        assert np.array_equal(loaded.codewords, book.codewords)
        assert loaded.threshold == book.threshold
        y = np.round(book.intensities[0])
        assert decode_identify(y, 0, loaded) == decode_identify(y, 0, book)

    @pytest.mark.parametrize("codewords, threshold", [
        ([[0.0, -0.0, 10.0]], math.inf),
        ([[-0.0, 2.5], [1e-300, 10.0], [5.0, 0.1]], -0.0),
        ([[7.25]], 1.5),
    ])
    def test_codebook_file_is_json_indent_2(self, tmp_path, codewords, threshold):
        book = small_book()
        book = DICodebook(np.array(codewords), book.params, book.constraints,
                          book.packing_radius, book.type1_budget, book.type2_budget, threshold)
        serialize.save_codebook(book, tmp_path / "book.json")
        doc = serialize.codebook_to_dict(book)
        assert (tmp_path / "book.json").read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_meta_names_the_versions_that_wrote_the_run(self, tmp_path):
        text = Path(write_meta(tmp_path, 10.0, 12.5)).read_text()
        versions = {"python": platform.python_version(), "numpy": np.__version__,
                    "dipc": dipc.__version__}
        assert text == json.dumps({"started_at": 10.0, "finished_at": 12.5, "wall_clock_s": 2.5,
                                   "versions": versions}, sort_keys=True, indent=2) + "\n"

    def test_codebook_unknown_schema(self):
        with pytest.raises(ValueError):
            serialize.codebook_from_dict({"schema": "dipc-codebook/99"})

    MALFORMED_BOOKS = {
        "no-codewords": "codebook: codewords: required",
        "extra-power-key": r"codebook: power: unknown fields \['mean'\]",
        "above-peak": "codeword 0 violates the power constraints",
        "duplicate": "codewords 0 and 1 are 0.000000 apart",
        # a numpy scalar's repr would read "got np.float64(0.9)"
        "hit-probs-sum": r"codebook: channel: hit probabilities must sum to 1, got 0\.9$",
    }

    @pytest.mark.parametrize("fault", sorted(MALFORMED_BOOKS))
    def test_malformed_codebook_rejected(self, fault):
        book = small_book()
        doc = serialize.codebook_to_dict(book)
        if fault == "no-codewords":
            del doc["codewords"]
        elif fault == "extra-power-key":
            doc["power"]["mean"] = 1.0
        elif fault == "above-peak":
            doc["codewords"][0] = [50.0] * len(doc["codewords"][0])
        elif fault == "hit-probs-sum":
            doc["channel"]["hit_probs"] = [0.5, 0.3, 0.1]
        else:
            doc["codewords"][1] = doc["codewords"][0]
        with pytest.raises(ValueError, match=self.MALFORMED_BOOKS[fault]):
            serialize.codebook_from_dict(doc)

    # wrong-typed or ragged fields, which loaded or raised an error not naming the field
    WRONG_TYPED_BOOKS = {
        "threshold-string": (lambda doc: {**doc, "threshold": "x"}, "codebook: threshold: "),
        "memory-string": (lambda doc: {**doc, "channel": {**doc["channel"], "memory": "2"}},
                          "codebook: channel: memory: "),
        "peak-string": (lambda doc: {**doc, "power": {**doc["power"], "peak": "10"}},
                        "codebook: power: peak: "),
        "radius-null": (lambda doc: {**doc, "packing_radius": None}, "codebook: packing_radius: "),
        "codeword-string": (lambda doc: {**doc, "codewords": [["x"] + row[1:]
                                                              for row in doc["codewords"]]},
                            "codebook: codewords: "),
        "codewords-ragged": (lambda doc: {**doc, "codewords": [row[:k + 1] for k, row
                                                               in enumerate(doc["codewords"])]},
                             "codebook: codewords: "),
        # the message shows at most 6 rows of 6 values: a whole 96x96 book is tens of kB
        "codewords-96x96-strings": (lambda doc: {**doc, "codewords": [["x"] * 96] * 96},
                                    "codebook: codewords: "),
    }

    @pytest.mark.parametrize("fault", sorted(WRONG_TYPED_BOOKS))
    def test_wrong_typed_field_named(self, fault):
        mutate, message = self.WRONG_TYPED_BOOKS[fault]
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            serialize.codebook_from_dict(mutate(serialize.codebook_to_dict(small_book())))
        assert len(str(err.value)) < 1000

    # documents that raised bare AttributeError, KeyError or TypeError
    MISSHAPEN_BOOKS = {
        "list-document": (lambda doc: [doc], "codebook: must be an object"),
        "channel-without-memory": (
            lambda doc: {**doc, "channel": {k: v for k, v in doc["channel"].items()
                                            if k != "memory"}},
            "codebook: channel: memory: required"),
        "channel-list": (lambda doc: {**doc, "channel": [1]},
                         "codebook: channel: must be an object"),
        "power-number": (lambda doc: {**doc, "power": 5}, "codebook: power: must be an object"),
    }

    @pytest.mark.parametrize("fault", sorted(MISSHAPEN_BOOKS))
    def test_misshapen_codebook_names_the_field(self, fault, tmp_path):
        book = small_book()
        mutate, message = self.MISSHAPEN_BOOKS[fault]
        doc = mutate(serialize.codebook_to_dict(book))
        with pytest.raises(ValueError, match=message):
            serialize.codebook_from_dict(doc)
        path = tmp_path / "book.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            serialize.load_codebook(path)

    @pytest.mark.parametrize("text", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON)
    def test_unreadable_codebook_file_raises_value_error(self, text, tmp_path):
        path = tmp_path / "book.json"
        path.write_bytes(text)
        with pytest.raises(ValueError):
            serialize.load_codebook(path)


class TestCLI:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_bounds_run(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, bounds_config())
        code = cli_main(["bounds", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 5
        assert (tmp_path / "out" / "results.jsonl").exists()
        assert (tmp_path / "out" / "meta.json").exists()

    def test_seed_and_trials_overrides(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, {k: v for k, v in di_config().items()})
        code = cli_main([
            "di-sim", "--config", cfg_path, "--out", str(tmp_path / "o1"),
            "--seed", "9", "--trials", "100",
        ])
        assert code == 0
        capsys.readouterr()
        written = json.loads((tmp_path / "o1" / "config.json").read_text())
        assert written["master_seed"] == 9
        assert written["trials"] == 100

    def test_config_errors_reported_as_json(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, {"kind": "bounds", "kappa": 2.0})
        code = cli_main(["bounds", "--config", cfg_path])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert len(record["violations"]) >= 2

    def test_small_separation_scale_is_a_config_error(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, di_config(separation_scale=0.5))
        code = cli_main(["di-sim", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert any(v.startswith("separation_scale:") for v in record["violations"])
        assert not (tmp_path / "out").exists()

    def test_trials_offered_only_where_the_schema_has_it(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, bounds_config())
        with pytest.raises(SystemExit) as exc:
            cli_main(["bounds", "--config", cfg_path, "--trials", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trials" in capsys.readouterr().err
        cfg_path = self.write_config(tmp_path, di_config())
        assert cli_main(["di-sim", "--config", cfg_path, "--out", str(tmp_path / "o"),
                         "--trials", "3"]) == 0
        assert json.loads((tmp_path / "o" / "config.json").read_text())["trials"] == 3

    def test_kind_mismatch(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, bounds_config())
        code = cli_main(["di-sim", "--config", cfg_path])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_env_var_default_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        cfg_path = self.write_config(tmp_path, bounds_config())
        assert cli_main(["bounds", "--config", cfg_path]) == 0
        assert (tmp_path / "envout" / "results.jsonl").exists()

    def test_unwritable_meta_is_a_runtime_error(self, tmp_path, capsys):
        (tmp_path / "out" / "meta.json").mkdir(parents=True)
        cfg_path = self.write_config(tmp_path, bounds_config())
        assert cli_main(["bounds", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "runtime"

    def test_reused_out_dir_drops_the_previous_kind_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        runs = [("di-sim", di_config(), {"codebook.json"}),
                ("bounds", bounds_config(kappa=0.25, n_grid=[64]), set()),
                ("bounds", bounds_config(), set())]
        for kind, cfg, own in runs:
            if "n_grid" in cfg:  # the converse table an older version wrote
                (out / "converse_trend.csv").write_text("n,bits\r\n64,1.0\r\n")
            cfg_path = self.write_config(tmp_path, cfg)
            assert cli_main([kind, "--config", cfg_path, "--out", str(out)]) == 0
            capsys.readouterr()
            names = {path.name for path in out.iterdir()}
            assert names == {"config.json", "results.jsonl", "summary.csv", "meta.json",
                             "notes.txt"} | own
        assert (out / "notes.txt").read_text() == "mine"

    def test_failed_run_in_a_reused_dir_leaves_no_meta(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        cfg_path = self.write_config(tmp_path, bounds_config())
        assert cli_main(["bounds", "--config", cfg_path, "--out", str(out)]) == 0
        capsys.readouterr()
        before = file_bytes(out)
        monkeypatch.setattr(harness, "_encode_rows", lambda rows: 1 / 0)
        assert cli_main(["bounds", "--config", cfg_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "runtime", "message": "division by zero"}
        assert file_bytes(out) == {name: data for name, data in before.items()
                                   if name != "meta.json"}

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli_main(["bounds", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config-load"

    @pytest.mark.parametrize("text", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON)
    def test_unreadable_config_file(self, text, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        assert cli_main(["bounds", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config-load"


# Malformed configs, one fault each: strings or bools where numbers belong,
# out-of-range values and broken cross-field rules.
MALFORMED = {
    "lambda1-string": di_config(lambda1="0.1"),
    "lambda2-string": di_config(lambda2="a"),
    "eps-string": dif_config(eps="x"),
    "kappa-string": bounds_config(kappa="0.5"),
    "memory-float": di_config(channel={**CHANNEL, "memory": 2.0}),
    "n-bool": di_config(n=True),
    "trials-bool": di_config(trials=True),
    "calibration-trials-too-few": di_config(calibration_trials=10),
    "levels-outside-peak": di_config(levels=[-1, 20]),
    "levels-string": di_config(levels="ab"),
    "max-codewords-zero": di_config(max_codewords=0),
    "max-codewords-string": di_config(max_codewords="4"),
    "hash-range-above-messages": dif_config(hash_range=16, num_messages=8),
    "tail-mass-above-one": dif_config(tail_mass=2),
    "inner-error-trials-zero": dif_config(inner_error_trials=0),
    "master-seed-bool": di_config(master_seed=True),
    "calibration-target-above-one": di_config(calibration_target=5),
    "hit-probs-sum-0.9": di_config(channel={**CHANNEL, "hit_probs": [0.5, 0.3, 0.1]}),
    # sizes a run could not allocate: hash_range derives to 2**101, n-slot draws
    "dif-derived-hash-range-huge": {k: v for k, v in dif_config(n=40000, lambda2=1e-30).items()
                                    if k not in ("hash_range", "num_messages")},
    "di-n-huge": di_config(n=2**62),
    "di-trials-huge": di_config(trials=2**62),
    # Poisson means whose truncated law misses total mass 1 by more than 1e-9
    "dif-mean-above-cap": dif_config(channel={"memory": 0, "hit_probs": [1.0]},
                                     power={"peak": 8.7e5, "average": 8.7e5}),
    # a sender's streams take its index as a signed 128-bit seed part
    "dif-sent-index-2**127": dif_config(num_messages=2**128 - 1, pairs=[[2**127, 0]]),
}


class TestSchema:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_config_is_a_config_error(self, name):
        with pytest.raises(ConfigError) as err:
            validate_config(MALFORMED[name])
        # values are shown as plain Python numbers, never as numpy reprs
        assert not any(re.search(r"\bnp\.", v) for v in err.value.violations)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_config_cli_record(self, name, tmp_path, capsys):
        cfg = MALFORMED[name]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli_main([cfg["kind"], "--config", str(path), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert record["violations"]
        assert not out.exists()

    # sha256 of canonical_bytes(config) with every default filled in.  A changed
    # default or a coerced value changes it, and with it every config_digest.
    PINNED = {
        "bounds": (bounds_config(),
                   "d99253ee145396001ce01d1321376a168cf6542369b0baae89de78c3fb65abd6"),
        "di-sim": ({"kind": "di-sim", "channel": dict(CHANNEL),
                    "power": {"peak": 10, "average": 10}, "n": 12, "trials": 300},
                   "395854cec69e4a99c96c7f73f2a491f8a12334aa7ed12e054e7c517190505c89"),
        "dif-sim": ({"kind": "dif-sim", "channel": dict(CHANNEL), "power": dict(POWER),
                     "n": 30, "trials": 60},
                    "b2c4795c0c3827a8724772a66f5c9b51509ec34aa23f18cacbcdecdc1861931e"),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_default_filled_digest_pinned(self, kind):
        raw, digest = self.PINNED[kind]
        assert hashlib.sha256(harness.canonical_bytes(validate_config(raw))).hexdigest() == digest

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_config_is_plain_data(self, kind):
        raw, _ = self.PINNED[kind]
        config = validate_config({**raw, "out_dir": "somewhere"})
        assert type(config) is dict
        assert json.loads(harness.canonical_bytes(config)) == {
            name: value for name, value in config.items() if name != "out_dir"}

    def test_values_are_not_coerced(self):
        raw = {"kind": "di-sim", "channel": dict(CHANNEL),
               "power": {"peak": 10, "average": 10}, "n": 12, "trials": 300}
        data = validate_config(raw)
        assert data["power"] == {"peak": 10, "average": 10}
        assert type(data["power"]["peak"]) is int
        assert "slot_duration" not in validate_config(
            bounds_config(channel={"memory": 0, "hit_probs": [1.0]}))["channel"]

    @pytest.mark.parametrize("cfg", [
        dif_config(n=2),                     # no full pilot block
        dif_config(n=3, hash_range=8),       # only 2**2 inner codewords
        dif_config(power={"peak": 5.0, "average": 0.5}),
        bounds_config(n_grid=[2], power={"peak": 0.001, "average": 0.001},
                      channel={**CHANNEL, "dark_rate": 0.0}),
    ])
    def test_cross_field_rules(self, cfg):
        with pytest.raises(ConfigError):
            validate_config(cfg)


# Small valid configs per kind and the fields each kind's table knows.
SMALL = {
    "bounds": bounds_config(n_grid=[4, 16]),
    "di-sim": di_config(n=6, trials=20, levels=[0.0, 5.0, 10.0]),
    "dif-sim": dif_config(n=12, trials=10, inner_error_trials=10, pairs=[[0, 1]]),
}
COMMON_FIELDS = ["kind", "master_seed", "out_dir"]
LINK_FIELDS = ["channel", "power"] + [f"channel.{k}" for k in CHANNEL] + \
    ["power.peak", "power.average"]
FIELDS = {
    "bounds": COMMON_FIELDS + LINK_FIELDS + ["kappa", "lambda1", "lambda2", "n_grid"],
    "di-sim": COMMON_FIELDS + LINK_FIELDS + [
        "n", "trials", "lambda1", "lambda2", "max_codewords", "levels", "separation_scale",
        "calibration_trials", "calibration_target"],
    "dif-sim": COMMON_FIELDS + LINK_FIELDS + [
        "n", "trials", "eps", "lambda2", "hash_range", "num_messages", "pairs",
        "inner_error_trials", "tail_mass"],
}
# Values a field may take: plausible ones, so that mutated configs often pass
# and run, and malformed ones.  Sizes stay at most 20 so that a run is quick.
PLAUSIBLE = [0, 1, 2, 3, 4, 7, 12, 20, 0.0, 0.05, 0.3, 0.5, 1.0, 2.5, 5.0, 10.0,
             [0.0, 5.0], [1.0], [0.5, 0.5], [4, 16], [[1, 0]], [[1, 2], [2, 1]], dict(POWER)]
MALFORMED_VALUES = [None, True, False, -1, -0.5, 0.99, 1e300, 10**400, math.nan, math.inf,
                    "x", "3", "bounds", [], [0, 1], [-1, 20], [[0, 0]], {}]
VALUES = PLAUSIBLE + MALFORMED_VALUES
DELETE = object()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=4),
    max_leaves=12,
)


def _mutate(cfg, path, value):
    target = cfg
    *parents, name = path.split(".")
    for part in parents:
        if not isinstance(target.get(part), dict):
            return
        target = target[part]
    if value is DELETE:
        target.pop(name, None)
    else:
        target[name] = value


class TestSchemaProperties:
    SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True,
                        suppress_health_check=[HealthCheck.too_slow])

    @SETTINGS
    @given(raw=json_values | st.dictionaries(
        st.sampled_from(sorted({f for fs in FIELDS.values() for f in fs if "." not in f}))
        | st.text(max_size=5),
        json_values | st.sampled_from(VALUES + list(SMALL)), max_size=8))
    def test_arbitrary_json_is_accepted_or_a_config_error(self, raw):
        try:
            validate_config(raw)
        except ConfigError:
            pass

    @SETTINGS
    @given(kind=st.sampled_from(sorted(SMALL)), data=st.data())
    def test_mutated_config_is_rejected_or_runs(self, kind, data):
        cfg = json.loads(json.dumps(SMALL[kind]))
        mutations = data.draw(st.lists(st.tuples(
            st.sampled_from(FIELDS[kind] + ["surprise"]),
            st.sampled_from(3 * PLAUSIBLE + [DELETE] + MALFORMED_VALUES)), min_size=1, max_size=2))
        for path, value in mutations:
            _mutate(cfg, path, value)
        try:
            config = validate_config(cfg)
        except ConfigError:
            return
        run(config)
