"""Every real-valued rate, budget, scale and slack of the public API, swept
over one fixed list of hostile values.

A case passes when the call raises ValueError or TypeError whose message
names the parameter, or returns a finite result: no NaN or infinity in a
returned number, tuple or float array.  On top of that, NaN, a bool, a
string and None must raise ValueError, and a record that accepts a value
stores it as a Python int or float (a numpy scalar through ``.item()``), finite
unless the parameter is one whose infinity means something.

The values are fixed, so no case can ask numpy for a huge array.
"""

import dataclasses
import math
import re
from functools import cache

import numpy as np
import pytest

import dipc
from dipc import ChannelParams, HashFamily, PowerConstraints
from dipc.dif_protocol import TypicalSetSpec, letter_laws
from dipc.serialize import load_codebook, save_codebook

FIG2 = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0, dark_rate=0.1)
POWER = PowerConstraints(peak=10.0, average=10.0)


@cache
def book():
    return dipc.construct_codebook(4, FIG2, POWER, 0.1, 0.1, max_codewords=2, seed=1)


def _book_fields():
    return dict(codewords=book().codewords, params=FIG2, constraints=POWER, packing_radius=0.1,
                type1_budget=0.1, type2_budget=0.1, threshold=1.0)


def _converse():
    return dict(n=8, kappa=0.5, params=FIG2, constraints=POWER, type1_budget=0.1,
                type2_budget=0.1)


def _construct():
    return dict(n=4, params=FIG2, constraints=POWER, type1_budget=0.1, type2_budget=0.1,
                max_codewords=2, seed=1)


def _spec():
    return dict(eps=0.2, letter_laws=letter_laws(FIG2, 10.0), tail_mass=1e-12)


def _dif_code():
    return dict(n=9, params=FIG2, constraints=POWER, hashes=HashFamily(1, 4, 2), eps=0.2,
                tail_mass=1e-12)


def _build_dif_code():
    return dict(n=9, params=FIG2, constraints=POWER, num_messages=4, hash_range=2, seed=1)


# (public callable, parameter) -> keyword arguments of a tiny valid call
SWEEP = {
    **{("ChannelParams", p): lambda: dict(memory=2, hit_probs=[0.6, 0.3, 0.1])
       for p in ("slot_duration", "dark_rate")},
    **{("PowerConstraints", p): lambda: dict(peak=10.0, average=10.0) for p in ("peak", "average")},
    **{("DICodebook", p): _book_fields
       for p in ("packing_radius", "type1_budget", "type2_budget", "threshold")},
    ("di_capacity_bounds", "kappa"): lambda: dict(kappa=0.5),
    ("memory_scaling", "kappa"): lambda: dict(n=8, kappa=0.5),
    **{("converse_log_count", p): _converse for p in ("kappa", "type1_budget", "type2_budget")},
    ("dif_capacity_lower", "peak"): lambda: dict(params=FIG2, peak=10.0),
    **{("bound_report", p): lambda: dict(kappa=0.5, params=FIG2, peak=10.0)
       for p in ("kappa", "peak")},
    **{("min_distance_radius", p): lambda: dict(type1_budget=0.1, type2_budget=0.1)
       for p in ("type1_budget", "type2_budget")},
    **{("packing_log_count_bound", p): lambda: dict(n=8, ball_radius=4.0, packing_radius=1.0)
       for p in ("ball_radius", "packing_radius")},
    **{("construct_codebook", p): _construct
       for p in ("type1_budget", "type2_budget", "separation_scale")},
    # calibration sets the threshold, so it gets a copy of the book
    ("calibrate_threshold", "target"): lambda: dict(book=dataclasses.replace(book()), trials=1000,
                                                    seed=1, target=0.1),
    **{("poisson_pmf_truncated", p): lambda: dict(mu=3.0, tail_mass=1e-12)
       for p in ("mu", "tail_mass")},
    **{("poisson_entropy_exact", p): lambda: dict(mu=3.0, tail_mass=1e-12)
       for p in ("mu", "tail_mass")},
    ("poisson_entropy_approx", "mu"): lambda: dict(mu=3.0),
    **{("poisson_bhattacharyya_sq", p): lambda: dict(mu1=1.0, mu2=2.0) for p in ("mu1", "mu2")},
    **{("TypicalSetSpec", p): _spec for p in ("eps", "tail_mass")},
    **{("DIFCode", p): _dif_code for p in ("eps", "tail_mass")},
    **{("build_dif_code", p): _build_dif_code for p in ("eps", "tail_mass")},
    ("build_inner_code", "peak"): lambda: dict(n=9, hash_range=2, peak=10.0, seed=1),
    **{("collision_bound_check", p): lambda: dict(num_messages=4, hash_range=16,
                                                  type2_budget=0.5, log_size_bits=3.0)
       for p in ("type2_budget", "log_size_bits")},
    ("max_messages_log_log", "peak"): lambda: dict(n=9, params=FIG2, peak=10.0),
    ("dif_rate", "log_log_bits"): lambda: dict(log_log_bits=3.0, n=9),
}

# (public callable, parameter) -> why the sweep skips it
EXEMPT = {
    ("BoundReport", "kappa"): "a result record that bound_report fills with a checked kappa",
    ("FiniteDistribution", "tail_bound"): "tied to the masses: any other value fails the total-"
                                          "mass check; test_tail_bound_is_a_number checks it",
}

# The parameter names the sweep covers; tests/test_surface.py checks that
# every public callable with one of them is in SWEEP or EXEMPT.
FLOAT_NAMES = {"kappa", "peak", "average", "slot_duration", "dark_rate", "type1_budget",
               "type2_budget", "packing_radius", "ball_radius", "separation_scale", "target",
               "threshold", "eps", "tail_mass", "tail_bound", "mu", "mu1", "mu2", "log_log_bits",
               "log_size_bits"}

# parameters whose infinity means something: accept everything, or filter nothing
INFINITE_OK = {"threshold", "eps"}

HOSTILE = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0.0": -0.0, "5e-324": 5e-324,
    "1e308": 1e308, "10**400": 10**400, "-10**400": -10**400, "True": True,
    "np.float32(0.5)": np.float32(0.5), "np.float64(0.5)": np.float64(0.5), "'0.5'": "0.5",
    "None": None,
}


def _must_raise(value) -> bool:
    return value is None or isinstance(value, (bool, str)) or value != value


def _finite(result) -> bool:
    if isinstance(result, tuple):
        return all(map(_finite, result))
    if isinstance(result, np.ndarray) and result.dtype.kind == "f":
        return bool(np.isfinite(result).all())
    return not isinstance(result, (float, np.floating)) or math.isfinite(result)


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE.keys())
@pytest.mark.parametrize("name, param", SWEEP, ids=[f"{n}.{p}" for n, p in SWEEP])
def test_hostile_float_named_or_finite(name, param, value):
    call = getattr(dipc, name)
    try:
        result = call(**{**SWEEP[name, param](), param: value})
    except (ValueError, TypeError) as exc:
        assert re.search(rf"\b{param}\b", str(exc)), f"{type(exc).__name__}: {exc}"
        assert isinstance(exc, ValueError) or not _must_raise(value), repr(exc)
        return
    assert not _must_raise(value), f"{value!r} was accepted: {result!r}"
    assert _finite(result), f"{value!r} gave {result!r}"
    if isinstance(call, type):  # a record keeps the checked value
        stored = getattr(result, param)
        assert type(stored) in (int, float), f"stored as {type(stored).__name__}"
        assert math.isfinite(stored) or param in INFINITE_OK, stored


@pytest.mark.parametrize("name, param", SWEEP, ids=[f"{n}.{p}" for n, p in SWEEP])
def test_base_call_is_valid(name, param):
    getattr(dipc, name)(**SWEEP[name, param]())


@pytest.mark.parametrize("call, message", [
    # a bare OverflowError from math.floor(target * trials)
    (lambda: dipc.calibrate_threshold(dataclasses.replace(book()), 1000, 0, target=1e308),
     r"^target must be a number in \[0, 1\), got 1e\+308$"),
    # every candidate was rejected: a one-codeword book
    (lambda: dipc.construct_codebook(4, FIG2, POWER, 0.1, 0.1, max_codewords=8,
                                     separation_scale=math.inf),
     r"^separation_scale must be a number in \[1, inf\), got inf$"),
    # infinite means
    (lambda: dipc.effective_intensity([math.inf, 1.0], FIG2),
     "^release rates must be nonnegative and finite$"),
    # NaN
    (lambda: dipc.dif_rate(math.nan, 900),
     r"^log_log_bits must be a number in \(-inf, inf\), got nan$"),
], ids=["calibrate-1e308", "separation-inf", "intensity-inf", "dif-rate-nan"])
def test_reproductions(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_reproduction_float32_power_saves(tmp_path):
    # json.dumps raised "Object of type float32 is not JSON serializable"
    power = PowerConstraints(np.float32(10), 10)
    save_codebook(dipc.construct_codebook(4, FIG2, power, 0.1, 0.1, max_codewords=2, seed=1),
                  tmp_path / "codebook.json")
    loaded = load_codebook(tmp_path / "codebook.json").constraints
    assert loaded == PowerConstraints(10.0, 10) and type(loaded.peak) is float


# an int stays an int, so a config's integer-valued fields keep their codebook.json bytes
@pytest.mark.parametrize("value, kind", [(np.float32(10.0), float), (np.float64(10.0), float),
                                         (np.int64(10), int), (10, int)],
                         ids=["float32", "float64", "int64", "int"])
def test_numbers_are_stored_as_python_numbers(value, kind):
    assert type(PowerConstraints(value, 10.0).peak) is kind


@pytest.mark.parametrize("value", [math.nan, -0.1, 1.5, math.inf, True, "0.0", None])
def test_tail_bound_is_a_number(value):
    with pytest.raises(ValueError, match=r"^tail_bound must be a number in \[0, 1\], got "):
        dipc.FiniteDistribution([0], [1.0], value)


@pytest.mark.parametrize("args", [(8, 4.0, 5e-324), (8, 1e308, 1.0), (8, 1e308, 5e-324)],
                         ids=["tiny-packing", "huge-ball", "both"])
def test_packing_bound_past_the_float_range_is_finite(args):
    n, ball, packing = args
    bits = dipc.packing_log_count_bound(*args)
    assert bits == pytest.approx(n * (1 + math.log2(ball) - math.log2(packing)))


def test_letter_laws_past_max_mean_name_the_peak():
    with pytest.raises(ValueError, match=r"^peak 1e\+308: a pilot law 6e\+307 exceeds MAX_MEAN"):
        letter_laws(FIG2, 1e308)
    with pytest.raises(ValueError, match=r"^peak must be a number in \[0, inf\), got nan$"):
        letter_laws(FIG2, math.nan)
