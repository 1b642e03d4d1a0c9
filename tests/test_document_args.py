"""Every numeric field of every document dipc reads (a config of each kind, a
codebook, and the channel and power objects both hold), swept over one fixed
list of hostile JSON values and one value just outside the field's interval.

A case passes when the document is rejected with exactly one problem, which
names the field's path, says what the field must be, as ``errors._check_int``
or ``_check_real`` words it, and shows the value.  A config gives a
ConfigError, a codebook a ValueError.  A value inside the interval (an
infinity where the field allows one) must be accepted.  Where a config field
feeds a library parameter on the same interval, the library's message for the
value must be the field's problem with the parameter's name in front.

The values are fixed, so no case can ask numpy for a huge array.
"""

import copy
import json
import math
import re
import reprlib

import pytest

import dipc
from dipc import ChannelParams, PowerConstraints, serialize
from dipc.errors import ConfigError
from dipc.harness import validate_config
from test_float_args import SWEEP as FLOAT_SWEEP
from test_integer_args import SWEEP as INTEGER_SWEEP

LINK = {"channel": {"memory": 2, "hit_probs": [0.6, 0.3, 0.1], "slot_duration": 1.0,
                    "dark_rate": 0.1},
        "power": {"peak": 10.0, "average": 10.0}}
CONFIGS = {
    "bounds": {"kind": "bounds", **LINK, "kappa": 0.5, "n_grid": [64]},
    "di-sim": {"kind": "di-sim", **LINK, "n": 8, "trials": 10, "levels": [0, 5, 10]},
    "dif-sim": {"kind": "dif-sim", **LINK, "n": 30, "trials": 10, "pairs": [[0, 1]]},
}
CODEBOOK = serialize.codebook_to_dict(dipc.construct_codebook(
    4, ChannelParams(**LINK["channel"]), PowerConstraints(**LINK["power"]), 0.1, 0.1,
    max_codewords=2, seed=1))
# the documents that hold the channel and power objects
LINK_DOCUMENTS = ("bounds", "codebook")

# (table, field, entry) -> (what the field must be, a value just outside its
# interval, or None when only NaN lies outside).  ``entry`` is the index path
# of a list field's entry, () for a number; a table is a kind of
# harness.SCHEMAS or serialize's _CHANNEL ("channel"), _POWER ("power") or
# _CODEBOOK ("codebook").
SWEEP = {
    ("channel", "memory", ()): ("an integer >= 0 and below 2**63", -1),
    ("channel", "hit_probs", (0,)): ("a number in [0, 1]", 1.5),
    ("channel", "slot_duration", ()): ("a number in (0, inf)", 0),
    ("channel", "dark_rate", ()): ("a number in [0, inf)", -5e-324),
    ("power", "peak", ()): ("a number in (0, inf)", 0.0),
    ("power", "average", ()): ("a number in (0, inf)", -1),
    ("codebook", "packing_radius", ()): ("a number in [0, inf)", -5e-324),
    ("codebook", "type1_budget", ()): ("a number in [0, 1)", 1),
    ("codebook", "type2_budget", ()): ("a number in [0, 1)", -0.0001),
    ("codebook", "threshold", ()): ("a number in [-inf, inf]", None),
    ("codebook", "codewords", (0, 0)): ("a number in [0, inf)", -1.0),
    **{(kind, "master_seed", ()): ("an integer >= -2**127 and below 2**127", 2**127)
       for kind in CONFIGS},
    ("bounds", "kappa", ()): ("a number in [0, 1)", 1.0),
    **{(kind, name, ()): ("a number in [0, 1)", 1)
       for kind in ("bounds", "di-sim") for name in ("lambda1", "lambda2")},
    ("bounds", "n_grid", (0,)): ("an integer >= 2 and below 2**63", 1),
    **{(kind, name, ()): ("an integer >= 1 and below 2**63", 0)
       for kind in ("di-sim", "dif-sim") for name in ("n", "trials")},
    ("di-sim", "max_codewords", ()): ("an integer >= 1 and below 2**63", 2**63),
    ("di-sim", "levels", (0,)): ("a number in [0, inf)", -1),
    ("di-sim", "separation_scale", ()): ("a number in [1, inf)", 0.999),
    ("di-sim", "calibration_trials", ()): ("an integer >= 1000 and below 2**63", 999),
    ("di-sim", "calibration_target", ()): ("a number in [0, 1)", 1.0),
    ("dif-sim", "eps", ()): ("a number in (0, inf]", 0.0),
    ("dif-sim", "lambda2", ()): ("a number in (0, 1)", 1.0),
    ("dif-sim", "hash_range", ()): ("an integer >= 1 and below 2**63", 0),
    ("dif-sim", "num_messages", ()): ("an integer >= 1 and below 2**128", 2**128),
    ("dif-sim", "pairs", (0, 0)): ("an integer >= 0 and below 2**127", 2**127),
    ("dif-sim", "pairs", (0, 1)): ("an integer >= 0 and below 2**128", -1),
    ("dif-sim", "inner_error_trials", ()): ("an integer >= 1 and below 2**63", 0),
    ("dif-sim", "tail_mass", ()): ("a number in (0, 1)", 1.0),
}

# (table, field) -> why no number of it is swept; tests/test_surface.py checks
# that every other field is in SWEEP
NOT_NUMBERS = {
    **{(kind, "kind"): "selects the table" for kind in CONFIGS},
    **{(kind, "out_dir"): "a string" for kind in CONFIGS},
    **{(table, name): "an object of its own table"
       for table in (*CONFIGS, "codebook") for name in ("channel", "power")},
    ("codebook", "schema"): "checked before the table",
}

# the JSON texts of the hostile values
HOSTILE = {"NaN": "NaN", "Infinity": "Infinity", "-Infinity": "-Infinity", "1e400": "1e400",
           "10**400": "1" + "0" * 400, "true": "true", '"1"': '"1"', "null": "null"}

# (table, field) -> the hostile values inside its interval: an int past the
# float range is read as the infinity of its sign, as json reads 1e400
INFINITE_OK = {("dif-sim", "eps"): {"Infinity", "1e400", "10**400"},
               ("codebook", "threshold"): {"Infinity", "-Infinity", "1e400", "10**400"}}

# (table, field) -> (public callable, parameter) that the field feeds on the same interval
LIBRARY = {
    ("channel", "slot_duration"): ("ChannelParams", "slot_duration"),
    ("channel", "dark_rate"): ("ChannelParams", "dark_rate"),
    ("power", "peak"): ("PowerConstraints", "peak"),
    ("power", "average"): ("PowerConstraints", "average"),
    **{("codebook", name): ("DICodebook", name)
       for name in ("packing_radius", "type1_budget", "type2_budget", "threshold")},
    ("bounds", "kappa"): ("di_capacity_bounds", "kappa"),
    **{(kind, f"lambda{k}"): ("min_distance_radius", f"type{k}_budget")
       for kind in ("bounds", "di-sim") for k in (1, 2)},
    ("bounds", "n_grid"): ("converse_log_count", "n"),
    ("di-sim", "n"): ("construct_codebook", "n"),
    ("di-sim", "trials"): ("estimate_errors", "trials"),
    ("di-sim", "max_codewords"): ("construct_codebook", "max_codewords"),
    ("di-sim", "separation_scale"): ("construct_codebook", "separation_scale"),
    ("di-sim", "calibration_trials"): ("calibrate_threshold", "trials"),
    ("di-sim", "calibration_target"): ("calibrate_threshold", "target"),
    ("dif-sim", "trials"): ("estimate_dif_errors", "trials"),
    ("dif-sim", "eps"): ("build_dif_code", "eps"),
    ("dif-sim", "num_messages"): ("HashFamily", "num_messages"),
    ("dif-sim", "inner_error_trials"): ("estimate_inner_error", "trials"),
    ("dif-sim", "tail_mass"): ("build_dif_code", "tail_mass"),
}


def _values(table, name, entry):
    """label -> JSON text of the values a field is swept with."""
    outside = SWEEP[table, name, entry][1]
    return {**HOSTILE, **({} if outside is None else {"outside": json.dumps(outside)})}


def _document(table, name, entry, text, document=None):
    """(kind, document): a valid ``document``, by default the one ``table`` belongs to,
    with the field, or its entry, set to the JSON value ``text``."""
    document = document or ("bounds" if table in ("channel", "power") else table)
    doc = copy.deepcopy(CODEBOOK if document == "codebook" else CONFIGS[document])
    holder = doc[table] if table in ("channel", "power") else doc
    for key in (name, *entry)[:-1]:
        holder = holder[key]
    holder[(name, *entry)[-1]] = json.loads(text)
    return document, doc


def _field_path(table, name, entry):
    """How a problem names the field: ``channel: hit_probs: [0]``, ``codewords: [0][0]``."""
    parts = [table] if table in ("channel", "power") else []
    indices = "".join(f"[{k}]" for k in entry)
    return ": ".join([*parts, name, *([indices] if indices else [])])


def _problems(document, doc) -> list[str]:
    """The problems of a document, a config's ConfigError or a codebook's ValueError:
    [] when it is accepted."""
    try:
        if document == "codebook":
            serialize.codebook_from_dict(doc)
        else:
            validate_config(doc)
    except ConfigError as exc:
        return exc.violations
    except ValueError as exc:
        assert document == "codebook", exc
        return str(exc).removeprefix("codebook: ").split("; ")
    return []


@pytest.mark.parametrize("document, table, name, entry, label", [
    pytest.param(document, table, name, entry, label,
                 id=f"{document}.{'.'.join([name, *map(str, entry)])}-{label}")
    for table, name, entry in SWEEP
    for document in (LINK_DOCUMENTS if table in ("channel", "power") else [table])
    for label in _values(table, name, entry)])
def test_hostile_field_named_with_its_interval(document, table, name, entry, label):
    text = _values(table, name, entry)[label]
    problems = _problems(*_document(table, name, entry, text, document))
    if label in INFINITE_OK.get((table, name), ()):
        assert problems == []
    else:
        what = SWEEP[table, name, entry][0]
        got = reprlib.repr(json.loads(text))
        assert problems == [f"{_field_path(table, name, entry)}: must be {what}, got {got}"]


@pytest.mark.parametrize("table, name, entry, label", [
    pytest.param(table, name, entry, label, id=f"{table}.{name}-{label}")
    for table, name, entry in SWEEP if (table, name) in LIBRARY
    for label in _values(table, name, entry)])
def test_field_words_its_library_parameter(table, name, entry, label):
    text = _values(table, name, entry)[label]
    problems = _problems(*_document(table, name, entry, text))
    call, param = LIBRARY[table, name]
    kwargs = (FLOAT_SWEEP.get((call, param)) or INTEGER_SWEEP[call, param])()
    try:
        getattr(dipc, call)(**{**kwargs, param: json.loads(text)})
    except ValueError as exc:
        path = _field_path(table, name, entry) + ": "
        assert [f"{param} {problem.removeprefix(path)}" for problem in problems] == [str(exc)]
    else:
        assert problems == []


FIG = ChannelParams(1, [0.5, 0.5])
POWER = PowerConstraints(10.0, 10.0)


def _config(**fields):
    return validate_config({**copy.deepcopy(CONFIGS["di-sim"]), **fields})


def _construct(levels):
    return dipc.construct_codebook(4, FIG, POWER, 0.1, 0.1, 4, levels=levels, seed=1)


@pytest.mark.parametrize("call, message", [
    # the hand-written text contradicted its own test: "must be a number >= 1, got inf"
    (lambda: _config(separation_scale=math.inf),
     r"^separation_scale: must be a number in \[1, inf\), got inf$"),
    # "must be a nonempty list of numbers in [0, 1], got [0.5, 1.5]"
    (lambda: _config(channel={"memory": 1, "hit_probs": [0.5, 1.5]}),
     r"^channel: hit_probs: \[1\]: must be a number in \[0, 1\], got 1\.5$"),
    # a bare OverflowError: int too large to convert to float
    (lambda: dipc.poisson_bhattacharyya_sq(10**400, 1.0),
     r"^mu1 must be a number in \[0, inf\), got " + re.escape(reprlib.repr(10**400)) + "$"),
    # the whole 401-digit int
    (lambda: dipc.min_distance_radius(0, 10**400),
     r"^type2_budget must be a number in \[0, 1\), got 10{17}\.\.\.0{19}$"),
    # "below 9223372036854775808"
    (lambda: dipc.construct_codebook(2**63, FIG, POWER, 0.1, 0.1, 4),
     r"^n must be an integer >= 1 and below 2\*\*63, got 9223372036854775808$"),
    # numpy's "overflow encountered in multiply", an error under the warning filter
    (lambda: dipc.effective_intensity([1e308, 1e308], ChannelParams(1, [0.5, 0.5],
                                                                    slot_duration=10.0)),
     "^release rates must be nonnegative and finite$"),
    # stored support [0, 1]
    (lambda: dipc.FiniteDistribution([0.5, 1.5], [0.5, 0.5]),
     r"^support must be a nonempty 1-D array of integers in \[0, 2\*\*63\), got \[0\.5, 1\.5\]$"),
    # a bare OverflowError: cannot convert float infinity to integer
    (lambda: dipc.FiniteDistribution([0, math.inf], [0.5, 0.5]),
     r"^support must be a nonempty 1-D array of integers in \[0, 2\*\*63\), got \[0, inf\]$"),
    # packed a book from a 2-D alphabet
    (lambda: _construct([[0, 10], [5, 10]]),
     r"^levels must be a nonempty 1-D array of numbers in \[0, 10\.0\], got \[\[0, 10\], "),
    # strings read as numbers
    (lambda: _construct(["5"]), r"^levels must be a nonempty 1-D array of numbers in "),
    (lambda: ChannelParams(1, ["0.5", "0.5"]), r"^hit_probs must be a nonempty 1-D array of "),
    (lambda: dipc.DICodebook([["1", "2"]], FIG, POWER, 0.1, 0.1, 0.1),
     r"^codewords must be a nonempty 2-D array of numbers in \[0, inf\), got \[\['1', '2'\]\]$"),
    (lambda: dipc.TypicalSetSpec(0.2, ["1.0"], 1e-12), r"^letter_laws must be a nonempty 1-D "),
    (lambda: dipc.effective_intensity(["1", "2"], FIG),
     "^codeword must be a nonempty 1-D sequence of release rates$"),
    # bools read as numbers
    (lambda: ChannelParams(0, [True]),
     r"^hit_probs must be a nonempty 1-D array of numbers in \[0, 1\], got \[True\]$"),
    (lambda: dipc.effective_intensity([True, False], FIG),
     "^codeword must be a nonempty 1-D sequence of release rates$"),
    # "hit_probs must have memory+1=2 entries, got 2"
    (lambda: ChannelParams(1, [[0.5, 0.5]]),
     r"^hit_probs must be a nonempty 1-D array of numbers in \[0, 1\], got \[\[0\.5, 0\.5\]\]$"),
], ids=["separation-inf", "hit-probs-entry", "bhattacharyya-10**400", "radius-10**400",
        "n-2**63", "means-overflow", "support-fractions", "support-inf", "levels-2-D",
        "levels-strings", "hit-probs-strings", "codewords-strings", "laws-strings",
        "rates-strings", "hit-probs-bools", "rates-bools", "hit-probs-2-D"])
def test_reproductions(call, message):
    # a ConfigError is a ValueError whose message joins its violations
    with pytest.raises(ValueError, match=message):
        call()
