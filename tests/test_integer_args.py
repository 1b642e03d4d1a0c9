"""Every integer size, count and message index of the public API, swept over
one fixed list of hostile values.

A case passes when the call returns, or when it raises ValueError, TypeError
or IndexError whose message names the parameter.  Anything else fails: an
OverflowError, a MemoryError, numpy's own messages.  On top of that, a size
or count that is not a Python or numpy integer (a float, integral or not, a
bool, a string, None) must raise ValueError, and a message index that is not
an integral number must raise IndexError; an integral float index is
accepted.

The values are fixed: no random draws and no open integer ranges, so no case
can ask numpy for a huge array.
"""

import dataclasses
import math
import re
from functools import cache

import numpy as np
import pytest

import dipc
from dipc import ChannelParams, PowerConstraints
from dipc.dif_protocol import TypicalSetSpec, letter_laws

FIG2 = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0, dark_rate=0.1)
POWER = PowerConstraints(peak=10.0, average=10.0)


@cache
def book():
    return dipc.construct_codebook(4, FIG2, POWER, 0.1, 0.1, max_codewords=2, seed=1)


@cache
def code():
    return dipc.build_dif_code(9, FIG2, POWER, num_messages=4, hash_range=2, seed=1)


# (public callable, parameter) -> keyword arguments of a tiny valid call
SWEEP = {
    ("ChannelParams", "memory"): lambda: dict(memory=2, hit_probs=[0.6, 0.3, 0.1]),
    ("memory_scaling", "n"): lambda: dict(n=8, kappa=0.5),
    **{("power_ball_radius", p): lambda: dict(n=8, params=FIG2, constraints=POWER, memory=2)
       for p in ("n", "memory")},
    ("packing_log_count_bound", "n"): lambda: dict(n=8, ball_radius=4.0, packing_radius=1.0),
    **{("construct_codebook", p): lambda: dict(n=4, params=FIG2, constraints=POWER,
                                               type1_budget=0.1, type2_budget=0.1,
                                               max_codewords=2, seed=1)
       for p in ("n", "max_codewords")},
    # calibration sets the threshold, so it gets a copy of the book
    ("calibrate_threshold", "trials"): lambda: dict(book=dataclasses.replace(book()),
                                                    trials=1000, seed=1, target=0.1),
    ("estimate_errors", "trials"): lambda: dict(book=book(), trials=10, seed=1),
    ("decode_identify", "index"): lambda: dict(y=np.zeros(4 + FIG2.memory, dtype=int), index=0,
                                               book=book()),
    **{("di_rate", p): lambda: dict(num_messages=8, n=8) for p in ("num_messages", "n")},
    ("converse_log_count", "n"): lambda: dict(n=8, kappa=0.5, params=FIG2, constraints=POWER,
                                              type1_budget=0.1, type2_budget=0.1),
    **{("HashFamily", p): lambda: dict(master_seed=1, num_messages=4, hash_range=2)
       for p in ("num_messages", "hash_range")},
    ("hash_message", "index"): lambda: dict(index=0, blocks=[[1, 2, 3]], family=dipc.HashFamily(
        master_seed=1, num_messages=4, hash_range=2)),
    ("typical_log_size", "n"): lambda: dict(n=9, spec=TypicalSetSpec(
        eps=0.2, letter_laws=letter_laws(FIG2, 10.0), tail_mass=1e-12)),
    **{("build_inner_code", p): lambda: dict(n=9, hash_range=2, peak=10.0, seed=1)
       for p in ("n", "hash_range")},
    **{("build_dif_code", p): lambda: dict(n=9, params=FIG2, constraints=POWER, num_messages=4,
                                           hash_range=2, seed=1)
       for p in ("n", "num_messages", "hash_range")},
    ("DIFCode", "n"): lambda: dict(n=9, params=FIG2, constraints=POWER, hashes=code().hashes,
                                   eps=0.2, tail_mass=1e-12),
    ("dif_encode", "index"): lambda: dict(index=0, code=code(), seed=1),
    ("dif_identify", "index"): lambda: dict(index=0, y=np.zeros(code().output_length, dtype=int),
                                            code=code()),
    ("estimate_dif_errors", "trials"): lambda: dict(code=code(), message_pairs=[(0, 1)],
                                                    trials=2, seed=1),
    ("estimate_inner_error", "trials"): lambda: dict(code=code(), trials=2, seed=1),
    **{("collision_bound_check", p): lambda: dict(num_messages=4, hash_range=16,
                                                  type2_budget=0.5, log_size_bits=3.0)
       for p in ("num_messages", "hash_range")},
    ("max_messages_log_log", "n"): lambda: dict(n=9, params=FIG2, peak=10.0),
    ("dif_rate", "n"): lambda: dict(log_log_bits=3.0, n=9),
    ("wilson_interval", "trials"): lambda: dict(successes=0, trials=10),
    ("ErrorEstimate", "trials"): lambda: dict(successes=0, trials=10),
}

# (public callable, parameter) -> why the sweep skips it
EXEMPT = {
    ("blockize", "memory"): "runs once per DIF trial, always on a checked ChannelParams.memory",
    ("ConverseBound", "n"): "a result record that converse_log_count fills with a checked n",
    ("ConverseBound", "memory"): "a result record holding memory_scaling's int",
}

# The parameter names the sweep covers; tests/test_surface.py checks that
# every public callable with one of them is in SWEEP or EXEMPT.
SWEPT_NAMES = {"n", "memory", "trials", "max_codewords", "num_messages", "hash_range", "index"}

HOSTILE = {
    "True": True, "False": False, "np.True_": np.True_, "-1": -1, "0": 0, "8.0": 8.0,
    "-0.0": -0.0, "5e-324": 5e-324, "1e308": 1e308, "nan": math.nan, "inf": math.inf,
    "-inf": -math.inf, "2**63": 2**63, "2**127": 2**127, "2**128": 2**128, "2**200": 2**200,
    "2**1024": 2**1024, "np.int64(8)": np.int64(8), "'8'": "8", "None": None,
}


def _must_raise(param, value):
    """The error a value must raise whatever its size, or None if it may pass."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if param == "index":
        integral = integer or isinstance(value, float) and value.is_integer()
        return None if integral else IndexError
    return None if integer else ValueError


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE.keys())
@pytest.mark.parametrize("name, param", SWEEP, ids=[f"{n}.{p}" for n, p in SWEEP])
def test_hostile_integer_named_or_accepted(name, param, value):
    kwargs = {**SWEEP[name, param](), param: value}
    try:
        getattr(dipc, name)(**kwargs)
    except (ValueError, TypeError, IndexError) as exc:
        assert re.search(rf"\b{param}\b", str(exc)), f"{type(exc).__name__}: {exc}"
        error = exc
    else:
        error = None
    expected = _must_raise(param, value)
    if expected is not None:
        assert isinstance(error, expected), f"{value!r} gave {error!r}, not a {expected.__name__}"


@pytest.mark.parametrize("name, param", SWEEP, ids=[f"{n}.{p}" for n, p in SWEEP])
def test_base_call_is_valid(name, param):
    getattr(dipc, name)(**SWEEP[name, param]())


@pytest.mark.parametrize("call, message", [
    (lambda: dipc.construct_codebook(8.0, FIG2, POWER, 0.1, 0.1, max_codewords=2),
     "^n must be an integer >= 1"),
    (lambda: dipc.memory_scaling(8.0, 0.5), "^n must be an integer >= 2"),
    (lambda: dipc.calibrate_threshold(dataclasses.replace(book()), True, 1, 0.1),
     "^trials must be an integer >= 1000"),
    (lambda: dipc.calibrate_threshold(dataclasses.replace(book()), 1000.0, 1, 0.1),
     "^trials must be an integer >= 1000"),
    (lambda: dipc.estimate_errors(book(), 2**70, 1), "^trials must be an integer >= 1 and below"),
    (lambda: dipc.build_dif_code(30.0, FIG2, POWER, num_messages=4, hash_range=2),
     "^n must be an integer >= 3"),
    (lambda: dipc.estimate_dif_errors(code(), [(0, 1)], 5.0, 1), "^trials must be an integer"),
    (lambda: dipc.estimate_inner_error(code(), 5.0, 1), "^trials must be an integer"),
], ids=["construct-float-n", "memory-scaling-float-n", "calibrate-bool", "calibrate-float",
        "estimate-2**70", "dif-float-n", "dif-float-trials", "inner-float-trials"])
def test_reproductions(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("index", ["1", None], ids=["str", "None"])
def test_index_that_is_not_a_number(index):
    y = np.zeros(4 + FIG2.memory, dtype=int)
    with pytest.raises(IndexError, match="^message index .* is not an integer"):
        dipc.decode_identify(y, index, book())


def test_integral_float_index_accepted():
    y = np.zeros(4 + FIG2.memory, dtype=int)
    assert dipc.decode_identify(y, 1.0, book()) == dipc.decode_identify(y, 1, book())


@pytest.mark.parametrize("value", [np.int64(5), np.uint8(5), 5], ids=["int64", "uint8", "int"])
def test_numpy_integers_are_stored_as_int(value):
    built = dipc.build_dif_code(**{**SWEEP["build_dif_code", "n"](), "n": value})
    assert type(built.n) is int and built.n == 5
