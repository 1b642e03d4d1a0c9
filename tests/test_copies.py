"""A pickled or copied record is made again by its constructor from its init
fields: it equals the original field for field, its arrays are read-only copies,
and a copied code or codebook decides as the original does."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import dipc
from dipc import ChannelParams, HashFamily, PowerConstraints, TypicalSetSpec
from dipc.dif_protocol import letter_laws

FIG2 = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0, dark_rate=0.1)
POWER = PowerConstraints(peak=10.0, average=10.0)


def _code():
    return dipc.build_dif_code(90, FIG2, POWER, num_messages=8, hash_range=4, seed=3)


def _book():
    book = dipc.construct_codebook(8, FIG2, POWER, 0.1, 0.1, max_codewords=3, seed=1)
    dipc.calibrate_threshold(book, 1000, 1, 0.1)  # a copy keeps the calibrated threshold
    return book


RECORDS = {
    "ChannelParams": lambda: FIG2,
    "PowerConstraints": lambda: POWER,
    "HashFamily": lambda: HashFamily(1, 4, 2),
    "TypicalSetSpec": lambda: TypicalSetSpec(0.2, letter_laws(FIG2, 10.0), 1e-12),
    "DIFCode": _code,
    "DICodebook": _book,
}

COPIES = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("kind", RECORDS)
def test_copy_is_an_equal_record_with_read_only_arrays(kind, how):
    # pickle and deepcopy of a HashFamily, and so of a DIFCode, raised
    # "cannot pickle '_blake2.blake2b' object"; the other records came back
    # with writeable arrays
    original = RECORDS[kind]()
    copied = COPIES[how](original)
    assert type(copied) is type(original) and copied is not original
    for field in dataclasses.fields(original):
        mine, theirs = getattr(original, field.name), getattr(copied, field.name)
        assert _same(mine, theirs), field.name
        for array, source in zip(_arrays(theirs), _arrays(mine)):
            assert not array.flags.writeable and array is not source, field.name


@pytest.mark.parametrize("how", COPIES)
def test_copied_code_decides_as_the_original(how):
    code = _code()
    copied = COPIES[how](code)
    blocks = np.arange(12).reshape(4, 3)
    assert [dipc.hash_message(i, blocks, copied.hashes) for i in range(8)] == \
           [dipc.hash_message(i, blocks, code.hashes) for i in range(8)]
    pairs = [(0, 1), (1, 0), (2, 5)]
    assert dipc.estimate_dif_errors(copied, pairs, 30, seed=4).rows(None) == \
           dipc.estimate_dif_errors(code, pairs, 30, seed=4).rows(None)


@pytest.mark.parametrize("how", COPIES)
def test_copied_codebook_decides_as_the_original(how):
    book = _book()
    copied = COPIES[how](book)
    assert copied.threshold == book.threshold
    assert dipc.estimate_errors(copied, 50, seed=2).rows(None) == \
           dipc.estimate_errors(book, 50, seed=2).rows(None)
