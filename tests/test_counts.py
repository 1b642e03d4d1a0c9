"""Every public reader of channel output counts, swept over one fixed list of
bad counts and one fixed list of accepted array forms.

Each reader checks its counts with ``channel.as_counts``.  A bad count (a
negative, a fraction, NaN, inf, 2**63 or more, or a value of a non-numeric
type) must raise exactly ``ValueError("counts must be nonnegative
integers")``; an accepted form (another integer type, a byte order, a
memory layout, an integral float, a nested list) must give the answer the
reader gives for the same counts as native int64.
"""

import math
import re
from functools import cache

import numpy as np
import pytest

import dipc
from dipc import ChannelParams, PowerConstraints
from dipc.channel import as_counts

FIG2 = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0, dark_rate=0.1)
POWER = PowerConstraints(peak=10.0, average=10.0)
MESSAGE = r"^counts must be nonnegative integers$"


@cache
def book():
    book = dipc.construct_codebook(4, FIG2, POWER, 0.1, 0.1, max_codewords=4, seed=1)
    dipc.calibrate_threshold(book, 1000, 2, 0.1)
    return book


@cache
def code():
    return dipc.build_dif_code(300, FIG2, POWER, num_messages=8, hash_range=4, seed=1)


@cache
def di_output():
    return dipc.sample_output(book().codewords[1], FIG2, seed=3)


@cache
def dif_output():
    return dipc.dif_encode(2, code(), seed=4)[0]


@cache
def blocks():
    return dipc.blockize(dif_output()[: code().n], FIG2.memory)


# public callable -> (valid int64 counts, the reader's answer for counts)
SWEEP = {
    "decode_identify": lambda: (di_output(), lambda y: [
        dipc.decode_identify(y, i, book()) for i in range(book().num_codewords)]),
    "dif_identify": lambda: (dif_output(), lambda y: [
        dipc.dif_identify(i, y, code()) for i in range(8)]),
    "log_likelihood": lambda: (di_output(), lambda y: dipc.log_likelihood(
        y, book().codewords[1], FIG2)),
    "typical_test": lambda: (blocks(), lambda b: dipc.typical_test(b, code().typ)),
    "hash_message": lambda: (blocks(), lambda b: [
        dipc.hash_message(i, b, code().hashes) for i in range(8)]),
}

# public callable -> why the sweep skips it
EXEMPT = {
    "blockize": "reshapes its outputs and never reads a value",
    "DIFTranscript": "a record that dif_encode fills with drawn counts",
}

# The parameter names of counts; tests/test_surface.py checks that every
# public callable with one of them is in SWEEP or EXEMPT.
COUNT_NAMES = {"y", "blocks"}


def _with_first(counts, dtype, value):
    bad = counts.astype(dtype)
    bad.flat[0] = value
    return bad


BAD = {
    "-1": lambda y: _with_first(y, np.int64, -1),
    "0.5": lambda y: _with_first(y, float, 0.5),
    "nan": lambda y: _with_first(y, float, math.nan),
    "inf": lambda y: _with_first(y, float, math.inf),
    "uint64-2**63": lambda y: _with_first(y, np.uint64, 2**63),
    "str": lambda y: y.astype(str),
    "object-None": lambda y: _with_first(y, object, None),
    "complex": lambda y: y.astype(complex),
}

FORMS = {
    "int8": lambda y: y.astype(np.int8),
    "int32": lambda y: y.astype(np.int32),
    "uint8": lambda y: y.astype(np.uint8),
    "uint64": lambda y: y.astype(np.uint64),
    ">i8": lambda y: y.astype(">i8"),
    "fortran": np.asfortranarray,
    "strided": lambda y: np.repeat(y, 2, axis=-1)[..., ::2],
    "integral-float": lambda y: y.astype(float),
    "nested-list": lambda y: y.tolist(),
}


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("name", SWEEP)
def test_bad_counts_rejected(name, bad):
    counts, read = SWEEP[name]()
    with pytest.raises(ValueError, match=MESSAGE):
        read(bad(counts))


@pytest.mark.parametrize("form", FORMS.values(), ids=FORMS.keys())
@pytest.mark.parametrize("name", SWEEP)
def test_accepted_forms_read_as_int64(name, form):
    counts, read = SWEEP[name]()
    assert counts.dtype == np.int64 and counts.max() < 128  # every form holds them
    assert read(form(counts)) == read(counts)


def test_native_int64_returned_as_is():
    y = np.arange(6).reshape(2, 3)
    assert as_counts(y) is y
    assert as_counts(y.astype(">i8")).dtype == np.dtype(np.int64)


# reader of one output record -> (its record length, the reader given a record)
RECORD_READERS = {
    "decode_identify": lambda: (di_output().size, lambda y: dipc.decode_identify(y, 1, book())),
    "dif_identify": lambda: (dif_output().size, lambda y: dipc.dif_identify(2, y, code())),
    "log_likelihood": lambda: (di_output().size, lambda y: dipc.log_likelihood(
        y, book().codewords[1], FIG2)),
}


@pytest.mark.parametrize("shape", ["row", "column", "short", "long"])
@pytest.mark.parametrize("name", RECORD_READERS)
def test_record_shape_rejected(name, shape):
    length, read = RECORD_READERS[name]()
    y = np.zeros(length, dtype=np.int64)
    bad = {"row": y[None, :], "column": y[:, None], "short": y[1:],
           "long": np.append(y, 0)}[shape]
    message = rf"^output record must have shape \({length},\), got {re.escape(str(bad.shape))}$"
    with pytest.raises(ValueError, match=message):
        read(bad)
