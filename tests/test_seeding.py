"""The stream contract of ``dipc.seeding.spawn``.

A stream is ``default_rng(SeedSequence(e))`` where ``e`` is the BLAKE2b
digest of the (seed, path) encoding read as a little-endian integer.  The
golden draws below were taken from that integer form; the words helper must
hand SeedSequence exactly the words it derives from that integer, and the
PCG64 seed words ``spawn`` computes from the SeedSequence pool must be the
ones ``generate_state`` would return.
"""

import copy
import hashlib
import pickle
import threading

import numpy as np
import pytest

from dipc import seeding
from dipc._pcg64_seed import PCG64Seed
from dipc.seeding import _entropy_words, _stream, spawn

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


def _path_digest(seed, *path):
    """The README's path encoding, hashed."""
    data = seed.to_bytes(16, "little", signed=True)
    for part in path:
        data += (b"s" + part.encode() + b"\x00" if isinstance(part, str)
                 else b"i" + part.to_bytes(16, "little", signed=True))
    return hashlib.blake2b(data, digest_size=32).digest()


def _reference(digest):
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest, "little")))


def _same_stream(got, expected):
    assert got.bit_generator.state == expected.bit_generator.state
    assert got.bit_generator.random_raw(4).tolist() == expected.bit_generator.random_raw(4).tolist()


# The path shapes the package draws from, 2,120 paths in all.
PATHS = ([(seed, "codebook", k) for seed in (0, 7, -3) for k in range(400)]
         + [(11, "dif", sender, t, phase) for sender in range(2) for t in range(200)
            for phase in ("p1", "p2")]
         + [(7, "inner-error", t) for t in range(300)]
         + [(seed, "calibrate", i) for seed in (7, 2**100) for i in range(10)])


def test_package_paths_match_seed_sequence():
    assert len(PATHS) >= 2000
    for path in PATHS:
        _same_stream(spawn(*path), _reference(_path_digest(*path)))


# A digest whose high words are zero has fewer entropy words and mixes
# differently; every word count from 1 to 8 must still give numpy's stream.
@pytest.mark.parametrize("words", range(1, 9))
def test_every_entropy_word_count_matches_seed_sequence(words):
    rng = np.random.default_rng(100 + words)
    for _ in range(50):
        value = rng.integers(1, 2**32, size=words, dtype=np.uint32)
        digest = value.astype("<u4").tobytes() + bytes(4 * (8 - words))
        assert _entropy_words(digest).size == words
        _same_stream(_stream(digest), _reference(digest))


def test_seed_words_match_generate_state():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        seq = np.random.SeedSequence(rng.integers(0, 2**32, size=rng.integers(1, 9),
                                                  dtype=np.uint32))
        expected = seq.generate_state(4, np.uint64)
        got = PCG64Seed(seq.pool).generate_state(4, np.uint64)
        assert got.dtype == np.uint64 and np.array_equal(got, expected)


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint64), (2, np.uint64),
                                            (4, np.int64), (8, np.uint32), (0, np.uint64)])
def test_private_sequence_answers_only_the_pcg64_request(n_words, dtype):
    seq = PCG64Seed(np.random.SeedSequence(5).pool)
    with pytest.raises(ValueError, match=r"only PCG64's seed request \(4, uint64\)"):
        seq.generate_state(n_words, dtype)


def test_generator_spawn_raises():
    # The bit generator's seed_seq is the private sequence, not a SeedSequence.
    rng = spawn(7, "x")
    assert not isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)
    with pytest.raises(TypeError):
        rng.spawn(1)


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copied_generator_keeps_its_stream(clone):
    rng = spawn(*GOLDEN[1][0])
    rng.random(3)
    assert clone(rng).bit_generator.random_raw(5).tolist() == rng.bit_generator.random_raw(5).tolist()


def test_threads_spawning_the_same_paths_agree():
    paths = PATHS[:600]
    barrier = threading.Barrier(2)
    states = [None, None]

    def run(k):
        barrier.wait()
        states[k] = [spawn(*path).bit_generator.state for path in paths]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert states[0] == states[1] == [_reference(_path_digest(*p)).bit_generator.state
                                      for p in paths]


def test_spawn_never_calls_generate_state(monkeypatch):
    class NoGenerateState(np.random.SeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            raise AssertionError("SeedSequence.generate_state was called")

    expected = spawn(*GOLDEN[0][0]).bit_generator.state
    monkeypatch.setattr(np.random, "SeedSequence", NoGenerateState)
    with pytest.raises(AssertionError):  # the guard bites on numpy's own path
        np.random.PCG64(np.random.SeedSequence(1))
    assert seeding.spawn(*GOLDEN[0][0]).bit_generator.state == expected
