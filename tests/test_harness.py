import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dipc import decode_identify, dif_encode
from dipc.cli import main as cli_main
from dipc.errors import ConfigError
from dipc.harness import (
    OUT_DIR_ENV,
    emit_plot_data,
    load_config,
    read_plot_data,
    read_results,
    run,
    validate_config,
    write_outputs,
)
from dipc.results import ErrorEstimate, wilson_interval
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


class TestValidation:
    def test_valid_bounds_config(self):
        config = validate_config(bounds_config())
        assert config.kind == "bounds"
        assert config.master_seed == 0

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
        assert validate_config(di_config(separation_scale=scale)).data["separation_scale"] == scale

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
        trend = out.tables["converse_trend"]
        assert [row["n"] for row in trend] == [64, 256]
        assert trend[0]["normalized"] > trend[1]["normalized"]


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
        assert out1.digest == out2.digest
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_outputs(out1, d1)
        write_outputs(out2, d2)
        assert (d1 / "results.jsonl").read_bytes() == (d2 / "results.jsonl").read_bytes()

    def test_digest_matches_written_config(self, tmp_path):
        cfg = validate_config(bounds_config())
        out = run(cfg)
        files = write_outputs(out, tmp_path / "o")
        import hashlib

        digest = hashlib.sha256(open(files["config"], "rb").read()).hexdigest()
        assert digest == out.digest
        header, _ = read_results(files["results"])
        assert header["config_digest"] == digest


class TestSimKinds:
    def test_di_sim_estimates_within_unit_interval(self):
        out = run(validate_config(di_config()))
        result = out.payload["result"]
        for est in list(result.type1.values()) + list(result.type2.values()):
            assert 0.0 <= est.ci_low <= est.estimate <= est.ci_high <= 1.0

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
        result = out.payload["result"]
        assert set(result.type1) == {0, 1}
        assert set(result.type2) == {(0, 1), (1, 0)}
        assert "inner_error" in result.extras
        metrics = {row["metric"] for row in out.rows}
        assert "inner_error" in metrics

    def test_measures_check_rows(self):
        cfg = validate_config({"kind": "measures-check", "trials": 50, "master_seed": 1})
        out = run(cfg)
        values = {row["metric"]: row["estimate"] for row in out.rows}
        assert values["bhattacharyya_closed_form_gap"] <= 1e-6
        assert values["sandwich_violation"] == 0.0
        assert values["entropy_approx_gap_mu10"] < 0.01


class TestPlotData:
    def test_round_trip(self, tmp_path):
        rows = [
            {"n": 64, "normalized": 0.92, "label": "a"},
            {"n": 256, "normalized": 0.875, "label": "b"},
        ]
        path = tmp_path / "trend.csv"
        emit_plot_data(rows, path)
        assert read_plot_data(path) == rows

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_plot_data([], path, fieldnames=["a", "b"])
        text = path.read_text().strip()
        assert text == "a,b"
        assert read_plot_data(path) == []

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            emit_plot_data([{"a": 1}], tmp_path / "missing" / "file.csv")


class TestResultFiles:
    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps({"schema_version": 99}) + "\n")
        with pytest.raises(ValueError):
            read_results(path)

    def test_summary_columns(self, tmp_path):
        out = run(validate_config(bounds_config()))
        files = write_outputs(out, tmp_path / "o")
        header = open(files["summary"]).readline().strip()
        assert header == "config_digest,metric,message_i,message_j,estimate,ci_low,ci_high,trials,seed"


class TestSerialization:
    def test_codebook_round_trip(self, tmp_path):
        out = run(validate_config(di_config()))
        book = out.payload["codebook"]
        path = tmp_path / "book.json"
        serialize.save_codebook(book, path)
        loaded = serialize.load_codebook(path)
        assert np.array_equal(loaded.codewords, book.codewords)
        assert loaded.threshold == book.threshold
        y = np.round(book.intensities[0])
        assert decode_identify(y, 0, loaded) == decode_identify(y, 0, book)

    def test_codebook_unknown_schema(self):
        with pytest.raises(ValueError):
            serialize.codebook_from_dict({"schema": "dipc-codebook/99"})

    def test_transcript_round_trip(self):
        from dipc import ChannelParams, build_dif_code

        params = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], dark_rate=0.1)
        code = build_dif_code(30, params, peak=5.0, num_messages=8, hash_range=4, seed=3)
        _, transcript = dif_encode(1, code, seed=4)
        data = serialize.transcript_to_dict(transcript)
        loaded = serialize.transcript_from_dict(json.loads(json.dumps(data)))
        assert loaded.hash_value == transcript.hash_value
        assert np.array_equal(loaded.blocks, transcript.blocks)
        # replay: the stored blocks still hash to the stored value
        from dipc import hash_message

        assert hash_message(1, loaded.blocks, code.hashes) == loaded.hash_value


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

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli_main(["bounds", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config-load"


class TestLoadConfig:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(bounds_config()))
        config = load_config(path)
        assert config.kind == "bounds"
        assert config.channel.memory == 2
        assert config.power.peak == 5.0


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
    "mu-max-negative": {"kind": "measures-check", "mu_max": -1},
    "master-seed-bool": di_config(master_seed=True),
    "calibration-target-above-one": di_config(calibration_target=5),
    # sizes a run could not allocate: hash_range derives to 2**101, n-slot draws
    "dif-derived-hash-range-huge": {k: v for k, v in dif_config(n=40000, lambda2=1e-30).items()
                                    if k not in ("hash_range", "num_messages")},
    "di-n-huge": di_config(n=2**62),
    "di-trials-huge": di_config(trials=2**62),
}


class TestSchema:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_config_is_a_config_error(self, name):
        with pytest.raises(ConfigError):
            validate_config(MALFORMED[name])

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

    # sha256 of canonical_bytes() with every default filled in.  A changed
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
        "measures-check": ({"kind": "measures-check"},
                           "847aa7c12c45f660f9489b1e1ac3378dcf8d0574b9857e5646a455dfb0fb6f0b"),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_default_filled_digest_pinned(self, kind):
        raw, digest = self.PINNED[kind]
        assert hashlib.sha256(validate_config(raw).canonical_bytes()).hexdigest() == digest

    def test_values_are_not_coerced(self):
        raw = {"kind": "di-sim", "channel": dict(CHANNEL),
               "power": {"peak": 10, "average": 10}, "n": 12, "trials": 300}
        data = validate_config(raw).data
        assert data["power"] == {"peak": 10, "average": 10}
        assert type(data["power"]["peak"]) is int
        assert "slot_duration" not in validate_config(
            bounds_config(channel={"memory": 0, "hit_probs": [1.0]})).data["channel"]

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
    "measures-check": {"kind": "measures-check", "trials": 5, "mu_max": 5.0},
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
    "measures-check": COMMON_FIELDS + ["trials", "mu_max"],
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
