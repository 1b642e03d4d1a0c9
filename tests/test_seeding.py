"""The stream contract of ``dipc.seeding.spawn``.

A stream is ``default_rng(SeedSequence(e))`` where ``e`` is the BLAKE2b
digest of the (seed, path) encoding read as a little-endian integer.  The
golden draws below were taken from that integer form; the words helper must
hand SeedSequence exactly the words it derives from that integer.
"""

import numpy as np
import pytest

from dipc.seeding import _entropy_words, spawn

# First three raw 64-bit outputs of each stream.
GOLDEN = [
    ((7, "codebook", 0), [17786264887060974238, 2506515401502808881, 5992947138065305758]),
    ((11, "dif", 1, 999, "p2"),
     [16745763140835448727, 16000403442347279472, 4005832546195184303]),
    ((-5, "calibrate", 3), [660490406169216381, 18131697397185866079, 8993481847435422698]),
    ((7, "big", 2**100), [436246660983134434, 8367777888163749759, 53696868318076243]),
]


@pytest.mark.parametrize("path, draws", GOLDEN, ids=["codebook", "dif", "negative", "2**100"])
def test_golden_draws(path, draws):
    assert spawn(*path).bit_generator.random_raw(3).tolist() == draws


def _integer_form(digest):
    return np.random.SeedSequence(int.from_bytes(digest, "little")).generate_state(4, np.uint64)


@pytest.mark.parametrize("zero_words", range(9))
def test_words_match_the_integer_form(zero_words):
    rng = np.random.default_rng(zero_words)
    words = rng.integers(1, 2**32, size=8 - zero_words, dtype=np.uint32)
    # A zero high byte in the highest nonzero word must not drop that word.
    if words.size:
        words[-1] = (words[-1] >> 8 | 1) if zero_words % 2 else (words[-1] | 1 << 31)
    digest = words.astype("<u4").tobytes() + bytes(4 * zero_words)
    expected = _integer_form(digest)
    got = np.random.SeedSequence(_entropy_words(digest)).generate_state(4, np.uint64)
    assert np.array_equal(got, expected)
    assert _entropy_words(digest).size == max(1, 8 - zero_words)


def test_all_zero_digest_is_one_word():
    digest = bytes(32)
    assert _entropy_words(digest).tolist() == [0]
    got = np.random.SeedSequence(_entropy_words(digest)).generate_state(4, np.uint64)
    assert np.array_equal(got, _integer_form(digest))


@pytest.mark.parametrize("path", [(7, "x", 1.5), (7.9, "x"), (True, "x"), (7, "x", True),
                                  (7, np.bool_(True)), (7, 2.0), ("7", "x")],
                         ids=["float-part", "float-seed", "bool-seed", "bool-part",
                              "numpy-bool", "integral-float", "string-seed"])
def test_non_integers_rejected(path):
    with pytest.raises(TypeError, match="must be integers"):
        spawn(*path)


def test_numpy_integers_accepted():
    expected = spawn(7, "x", 3).random(4)
    for seed, part in [(np.int64(7), np.int32(3)), (np.uint8(7), np.uint64(3))]:
        assert np.array_equal(spawn(seed, "x", part).random(4), expected)



# The zero byte ends a string part, so a part holding one aliased the path
# split there: spawn(7, "a", "b") and spawn(7, "a\x00sb") were one stream.
@pytest.mark.parametrize("path", [(7, "a\x00sb"), (7, "\x00"), (7, "x", 1, "p\x00")],
                         ids=["aliasing-split", "only-nul", "last-part"])
def test_nul_in_a_string_part_rejected(path):
    with pytest.raises(ValueError, match="contains a NUL character"):
        spawn(*path)


# An integer beyond 16 signed bytes ended in a bare "int too big to convert".
@pytest.mark.parametrize("path", [(2**127, "x"), (-(2**127) - 1, "x"), (7, "x", 2**127),
                                  (7, np.uint64(3), -(2**200))],
                         ids=["seed-high", "seed-low", "part-high", "part-low"])
def test_integer_beyond_128_bits_rejected(path):
    bad = next(p for p in path if isinstance(p, int) and not -(2**127) <= p < 2**127)
    with pytest.raises(ValueError, match=f"^stream seed or index {bad} is outside the signed"
                                         " 128-bit range$"):
        spawn(*path)


@pytest.mark.parametrize("value", [2**127 - 1, -(2**127)])
def test_128_bit_extremes_accepted(value):
    assert spawn(value, "x", value).random() != spawn(value, "x", 0).random()
