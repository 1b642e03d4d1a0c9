import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dipc import (
    ChannelParams,
    HashFamily,
    PowerConstraints,
    blockize,
    build_dif_code,
    build_inner_code,
    collision_bound_check,
    construct_codebook,
    dif_encode,
    dif_identify,
    dif_rate,
    effective_intensity,
    estimate_dif_errors,
    estimate_inner_error,
    hash_message,
    max_messages_log_log,
    poisson_entropy_exact,
    typical_log_size,
    typical_test,
)
from dipc import dif_protocol
from dipc.dif_protocol import (TYPICALITY_GUARD_SIGMAS, DIFCode, TypicalSetSpec, dif_power_fits,
                               inner_length, inner_patterns_cover, inner_pulse_bound,
                               letter_laws, _ml_decode, _ml_table)
from dipc.measures import DEFAULT_TAIL_MASS, FiniteDistribution, poisson_pmf_truncated
from dipc.seeding import spawn

FIG2 = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0, dark_rate=0.1)


def full(peak):
    """A budget every slot may spend at the peak: a DIF code always fits it."""
    return PowerConstraints(peak=peak, average=peak)


def pilot_spec(params, peak, eps):
    """The typicality test build_dif_code makes for a pilot pulsing at ``peak``."""
    return TypicalSetSpec(eps=eps, letter_laws=letter_laws(params, peak),
                          tail_mass=DEFAULT_TAIL_MASS)


def position_pmfs(spec):
    """Per in-block position: (y_max, pmf over 0..y_max plus the overflow
    bucket), from the Poisson law itself rather than the spec's table."""
    for law in spec.letter_laws:
        dist = poisson_pmf_truncated(float(law), spec.tail_mass)
        yield int(dist.support[-1]), np.append(dist.mass, dist.tail_bound)


def standalone_intensities(inner):
    """Each inner codeword's intensity sent alone, shape (M, length + memory)."""
    return np.stack([effective_intensity(c, FIG2) for c in inner])


class TestPilot:
    def pilot_code(self, n, params, peak):
        return build_dif_code(n, params, full(peak), num_messages=2, hash_range=1)

    def test_degenerate_memory_fills_every_slot(self):
        params = ChannelParams(memory=0, hit_probs=[1.0])
        np.testing.assert_allclose(self.pilot_code(5, params, peak=3.0).pilot, 3.0)

    def test_truncated_final_block(self):
        pilot = self.pilot_code(7, FIG2, peak=4.0).pilot
        np.testing.assert_allclose(pilot, [4.0, 0, 0, 4.0, 0, 0, 4.0])
        assert blockize(pilot, FIG2.memory).shape == (2, 3)

    def test_expected_block_receptions(self):
        mu = self.pilot_code(9, FIG2, peak=10.0).phase1_intensity
        np.testing.assert_allclose(mu, np.tile([6.1, 3.1, 1.1], 3))

    def test_letter_laws(self):
        np.testing.assert_allclose(letter_laws(FIG2, 10.0), [6.1, 3.1, 1.1])

    @pytest.mark.parametrize("n, peak, message", [
        (5, 0.0, r"^peak must be a number in \(0, inf\), got 0\.0$"),
        (5, -1.0, r"^peak must be a number in \(0, inf\), got -1\.0$"),
        (0, 3.0, "^n must be an integer >= 3"),
        (-4, 3.0, "^n must be an integer >= 3"),
    ], ids=["peak-zero", "peak-negative", "n-zero", "n-negative"])
    def test_degenerate_pilot_rejected(self, n, peak, message):
        with pytest.raises(ValueError, match=message):
            build_dif_code(n, FIG2, PowerConstraints(peak=peak, average=5.0), num_messages=2,
                           hash_range=1)

    def test_pilot_needs_a_full_block(self):
        # at n = memory the pilot (peak, 0) has no full block to test or hash
        with pytest.raises(ValueError, match="^n must be an integer >= 3 and below"):
            self.pilot_code(FIG2.memory, FIG2, peak=10.0)
        code = self.pilot_code(FIG2.memory + 1, FIG2, peak=10.0)
        assert blockize(code.pilot, FIG2.memory).shape == (1, 3)
        y, transcript = dif_encode(0, code, seed=1)
        assert transcript.blocks.shape == (1, 3)
        assert isinstance(dif_identify(0, y, code), bool)
        result = estimate_dif_errors(code, [(0, 1)], trials=3, seed=1)
        assert result.type1[0].trials == 3


class TestBlockize:
    def test_exact_division(self):
        assert blockize(np.arange(6), memory=2).shape == (2, 3)

    def test_partial_block_dropped(self):
        blocks = blockize(np.arange(7), memory=2)
        assert blocks.shape == (2, 3)
        np.testing.assert_array_equal(blocks, [[0, 1, 2], [3, 4, 5]])

    def test_round_trip_on_full_blocks(self):
        blocks = np.arange(12).reshape(4, 3)
        np.testing.assert_array_equal(blockize(blocks.ravel(), memory=2), blocks)


class TestTypicality:
    def spec(self, eps=0.2):
        return pilot_spec(FIG2, 5.0, eps=eps)

    def test_true_law_samples_are_members(self):
        spec = self.spec()
        rng = np.random.default_rng(0)
        hits = sum(
            typical_test(rng.poisson(spec.letter_laws, size=(300, 3)), spec)
            for _ in range(200)
        )
        assert hits / 200 >= 0.98

    def test_acceptance_high_at_500_blocks(self):
        spec = self.spec()
        rng = np.random.default_rng(1)
        hits = sum(
            typical_test(rng.poisson(spec.letter_laws, size=(500, 3)), spec)
            for _ in range(300)
        )
        assert hits / 300 >= 0.99

    def test_wrong_law_rejected(self):
        spec = self.spec()
        rng = np.random.default_rng(2)
        hits = sum(
            typical_test(rng.poisson(spec.letter_laws * 2, size=(300, 3)), spec)
            for _ in range(50)
        )
        assert hits == 0

    def test_all_zero_blocks_rejected(self):
        assert not typical_test(np.zeros((300, 3), dtype=int), self.spec())

    def test_infinite_slack_accepts_everything(self):
        spec = self.spec(eps=math.inf)
        assert typical_test(np.full((10, 3), 1000), spec)

    # Each was typical at eps = inf; at a finite eps, fractions ended in numpy's
    # cast TypeError from bincount.
    @pytest.mark.parametrize("eps", [0.2, math.inf])
    def test_negative_counts_and_no_blocks_rejected_at_any_slack(self, eps):
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            typical_test(np.full((4, 3), -5), self.spec(eps))
        with pytest.raises(ValueError, match="^counts must be nonnegative integers$"):
            typical_test(np.full((4, 3), 0.5), self.spec(eps))
        with pytest.raises(ValueError, match="need at least one block"):
            typical_test(np.zeros((0, 3), dtype=int), self.spec(eps))

    # A NaN slack made every string typical whatever its counts.
    @pytest.mark.parametrize("eps", [math.nan, 0.0, -0.1, -math.inf])
    def test_slack_must_be_positive(self, eps):
        with pytest.raises(ValueError, match=r"^eps must be a number in \(0, inf\], got "):
            TypicalSetSpec(eps=eps, letter_laws=[6.1, 3.1, 1.1], tail_mass=1e-12)
        with pytest.raises(ValueError, match=r"^eps must be a number in \(0, inf\], got "):
            build_dif_code(90, FIG2, full(5.0), num_messages=8, hash_range=4, eps=eps)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            typical_test(np.zeros((5, 2), dtype=int), self.spec())

    # Each used to build and raise only at the first typicality test.
    @pytest.mark.parametrize("laws, tail_mass, message", [
        ([math.nan, 1.0, 1.0], 1e-12, r"^mu must be a number in \[0, 100000\.0\], got nan$"),
        ([6.1, -0.5, 1.1], 1e-12, r"^mu must be a number in \[0, 100000\.0\], got -0\.5$"),
        ([6.1, 2e5, 1.1], 1e-12, r"^mu must be a number in \[0, 100000\.0\], got 200000\.0$"),
        ([6.1, 3.1, 1.1], 2.0, r"^tail_mass must be a number in \(0, 1\), got 2\.0$"),
        ([6.1, 3.1, 1.1], 0.0, r"^tail_mass must be a number in \(0, 1\), got 0\.0$"),
        ([6.1, 3.1, 1.1], math.nan, r"^tail_mass must be a number in \(0, 1\), got nan$"),
    ])
    def test_bad_laws_and_tail_mass_rejected_when_built(self, laws, tail_mass, message):
        for eps in (0.2, math.inf):
            with pytest.raises(ValueError, match=message):
                TypicalSetSpec(eps=eps, letter_laws=laws, tail_mass=tail_mass)
        with pytest.raises(ValueError, match=message):  # the messages of the table's reader
            for law in laws:
                poisson_pmf_truncated(law, tail_mass)

    # a 2-D array failed with numpy's "truth value ... is ambiguous", and an
    # empty one built a spec whose table failed at the first test
    @pytest.mark.parametrize("laws", [[[1.0, 2.0]], [], 3.0], ids=["2-D", "empty", "scalar"])
    def test_laws_must_be_a_nonempty_vector(self, laws):
        with pytest.raises(ValueError, match=r"^letter_laws must be a nonempty 1-D array"):
            TypicalSetSpec(eps=0.2, letter_laws=laws, tail_mass=1e-12)

    def test_build_dif_code_rejects_them_before_any_test(self):
        with pytest.raises(ValueError, match=r"^tail_mass must be a number in \(0, 1\), got 2\.0$"):
            build_dif_code(30, FIG2, full(5.0), num_messages=8, hash_range=4, tail_mass=2.0)
        with pytest.raises(ValueError,
                           match=r"^peak 200000\.0: a pilot law 120000\.1 exceeds MAX_MEAN=100000$"):
            build_dif_code(30, FIG2, full(2e5), num_messages=8, hash_range=4)

    def test_infinite_slack_on_a_silent_position_builds_without_a_warning(self):
        # a tolerance table of eps*pmf at eps=inf held inf * 0 = NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = TypicalSetSpec(eps=math.inf, letter_laws=[0.0, 3.0], tail_mass=1e-12)
        assert typical_test(np.zeros((2, 2), dtype=int), spec)

    def test_equality_and_hash_by_value(self):
        spec = TypicalSetSpec(0.2, [6.1, 3.1, 1.1], 1e-12)
        same = TypicalSetSpec(0.2, np.array([6.1, 3.1, 1.1]), 1e-12)
        assert same._table is not spec._table  # each spec's own table, not part of its value
        assert spec == same and hash(spec) == hash(same)
        assert spec in [same] and {spec: 1}[same] == 1
        for other in (TypicalSetSpec(0.3, [6.1, 3.1, 1.1], 1e-12),
                      TypicalSetSpec(0.2, [6.1, 3.1], 1e-12),
                      TypicalSetSpec(0.2, [6.1, 3.1, 1.1], 1e-9)):
            assert spec != other and other not in {spec: 1}
        assert pilot_spec(FIG2, 10.0, 0.2) == build_dif_code(
            9, FIG2, full(10.0), num_messages=4, hash_range=2).typ

    def test_log_size_memoryless(self):
        params = ChannelParams(memory=0, hit_probs=[1.0])
        spec = pilot_spec(params, 1.0, eps=0.2)
        assert typical_log_size(100, spec) == pytest.approx(
            100 * poisson_entropy_exact(1.0)
        )

    def test_log_size_with_memory(self):
        params = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], dark_rate=0.0)
        spec = pilot_spec(params, 10.0, eps=0.2)
        expected = math.ceil(100 / 3) * (
            poisson_entropy_exact(6.0)
            + poisson_entropy_exact(3.0)
            + poisson_entropy_exact(1.0)
        )
        assert typical_log_size(100, spec) == pytest.approx(expected)

    def test_zero_letter_law(self):
        # mean 0 puts all mass on count 0; one count of 1 in 3 blocks puts 1/3
        # in the overflow bucket, beyond its eps/|support| = 0.2 tolerance
        spec = TypicalSetSpec(eps=0.2, letter_laws=[0.0, 3.0], tail_mass=1e-12)
        y_max, pmf = next(position_pmfs(spec))
        assert y_max == 0 and pmf.tolist() == [1.0, 0.0]
        blocks = np.array([[0, 3], [0, 2], [0, 4]])
        assert typical_test(blocks, spec)
        blocks[1, 0] = 1
        assert not typical_test(blocks, spec)

    def test_degenerate_silent_channel_has_zero_size(self):
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.0)
        spec = TypicalSetSpec(eps=0.2, letter_laws=np.array([0.0]), tail_mass=1e-12)
        assert typical_log_size(50, spec) == 0.0


class TestHashFamily:
    FAMILY = HashFamily(master_seed=7, num_messages=100, hash_range=16)

    def blocks(self, seed=0, count=32):
        rng = np.random.default_rng(seed)
        return rng.poisson([3.1, 1.6, 0.6], size=(count, 3))

    def test_range_one_always_first(self):
        family = HashFamily(master_seed=1, num_messages=4, hash_range=1)
        assert hash_message(0, self.blocks(), family) == 1

    def test_deterministic(self):
        b = self.blocks(3)
        assert hash_message(5, b, self.FAMILY) == hash_message(5, b, self.FAMILY)

    def test_depends_on_message_and_blocks(self):
        b = self.blocks(4)
        values_across_messages = {hash_message(i, b, self.FAMILY) for i in range(40)}
        assert len(values_across_messages) > 1
        values_across_blocks = {
            hash_message(0, self.blocks(s), self.FAMILY) for s in range(40)
        }
        assert len(values_across_blocks) > 1

    def test_collision_rate_near_inverse_range(self):
        trials = 4000
        coll = sum(
            hash_message(1, b, self.FAMILY) == hash_message(2, b, self.FAMILY)
            for b in (self.blocks(s) for s in range(trials))
        )
        rate = coll / trials
        sigma = math.sqrt((1 / 16) * (15 / 16) / trials)
        assert abs(rate - 1 / 16) <= 4 * sigma

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            HashFamily(master_seed=0, num_messages=4, hash_range=5)
        with pytest.raises(IndexError, match="is not an integer in"):
            hash_message(100, self.blocks(), self.FAMILY)

    # 2.5 hashed to 1.5, 1.0, ...; True and True built a family
    @pytest.mark.parametrize("field, value", [
        ("hash_range", 2.5), ("hash_range", 2.0), ("hash_range", True), ("hash_range", 0),
        ("num_messages", 4.0), ("num_messages", True),
    ])
    def test_sizes_must_be_integers(self, field, value):
        sizes = {"num_messages": 4, "hash_range": 1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1 and below"
                                             f" {2**128}, got "):
            HashFamily(master_seed=1, **sizes)

    def test_num_messages_fits_the_16_byte_index(self):
        # hash_message(2**129, ...) raised a bare OverflowError writing the index
        with pytest.raises(ValueError, match="^num_messages must be an integer >= 1 and below"):
            HashFamily(master_seed=1, num_messages=2**128, hash_range=4)
        top = HashFamily(master_seed=1, num_messages=2**128 - 1, hash_range=4)
        assert 1 <= hash_message(2**128 - 2, self.blocks(), top) <= 4

    def test_numpy_sizes_hash_like_ints(self):
        # an np.int64 hash_range overflowed at the first hash
        family = HashFamily(master_seed=1, num_messages=np.int64(4), hash_range=np.int64(2))
        assert family == HashFamily(master_seed=1, num_messages=4, hash_range=2)
        assert type(family.num_messages) is int and type(family.hash_range) is int
        plain = HashFamily(master_seed=1, num_messages=4, hash_range=2)
        b = self.blocks(5)
        assert [hash_message(i, b, family) for i in range(4)] == \
            [hash_message(i, b, plain) for i in range(4)]

    @pytest.mark.parametrize("seed, error", [
        (1.5, TypeError), (True, TypeError), (2**200, ValueError), (-2**127 - 1, ValueError),
    ], ids=["float", "bool", "2**200", "below-128-bit"])
    def test_seed_outside_the_stream_seeds_rejected(self, seed, error):
        # 1.5 and True hashed as seed 1; 2**200 overflowed at the first hash
        with pytest.raises(error, match="stream seed"):
            HashFamily(master_seed=seed, num_messages=4, hash_range=2)

    def test_bool_index_rejected(self):
        # True hashed as message 1
        with pytest.raises(IndexError, match="is not an integer in"):
            hash_message(True, self.blocks(), self.FAMILY)

    # -1 hashed as 2**64 - 1 and 1.7 as 1
    @pytest.mark.parametrize("blocks", [[[-1, 2, 3]], [[1.7, 2, 3]]])
    def test_blocks_must_be_nonnegative_integers(self, blocks):
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            hash_message(0, blocks, self.FAMILY)


class TestInnerCode:
    def test_size_one_decodes_to_one(self):
        code = build_inner_code(25, 1, peak=5.0, seed=0)
        y = np.zeros(code.shape[1] + FIG2.memory)
        assert _ml_decode(y, _ml_table(standalone_intensities(code))) == 0

    def test_codewords_distinct_and_balanced(self):
        code = build_inner_code(64, 8, peak=5.0, seed=1)
        assert code.shape == (8, 8)
        rows = {row.tobytes() for row in code}
        assert len(rows) == 8
        on = (code > 0).sum(axis=1)
        assert np.all(on == 4)

    def test_range_too_large(self):
        with pytest.raises(ValueError):
            build_inner_code(4, 5, peak=5.0, seed=0)  # length 2, max 4

    # nan and inf gave NaN rows, -1 negative rates, 0 two identical all-zero rows
    @pytest.mark.parametrize("peak", [math.nan, -1.0, math.inf, 0.0])
    def test_peak_must_be_positive_and_finite(self, peak):
        with pytest.raises(ValueError, match=r"^peak must be a number in \(0, inf\), got "):
            build_inner_code(9, 2, peak, 1)

    # n -> hash ranges: 1 and 2, the balanced pool C(L, L//2) and one past it
    # (the unbalanced fallback) up to all 2^L patterns, and L = 68/69.
    INNER_GRID = {1: (1, 2), 4: (1, 2, 3, 4), 9: (1, 2, 3, 4, 8), 16: (1, 2, 6, 7, 16),
                  25: (1, 2, 10, 11, 32), 64: (2, 70, 71), 4624: (1, 2, 5), 4625: (1, 2, 5)}
    INNER_DIGEST = "db6f50d604c902da3fe57be9df32fd7ba75f9021d33bc148d4e39c65143baca8"

    def grid_codes(self):
        for n, ranges in self.INNER_GRID.items():
            for hash_range in ranges:
                for seed in range(3):
                    yield n, hash_range, build_inner_code(n, hash_range, 2.5, seed)

    def test_codes_pinned_over_the_grid(self):
        digest = hashlib.sha256()
        for *_, code in self.grid_codes():
            digest.update(code.tobytes())
        assert digest.hexdigest() == self.INNER_DIGEST

    def test_no_codeword_exceeds_the_pulse_bound(self):
        reached = set()
        for n, hash_range, code in self.grid_codes():
            bound = 2.5 * inner_pulse_bound(n, hash_range)
            assert code.sum(axis=1).max() <= bound
            if code.sum(axis=1).max() == bound:
                reached.add((n, hash_range))
        # one past the pool the bound is all L slots, and an all-on draw reaches it
        assert inner_pulse_bound(4, 2) == 1 and inner_pulse_bound(4, 3) == 2
        assert {(1, 2), (4, 3)} <= reached

    def test_long_codewords_never_count_balanced_patterns(self, monkeypatch):
        comb = math.comb

        def short_comb(n, k):
            assert n < 68, f"math.comb({n}, {k}) past the 2**63 pool"
            return comb(n, k)

        monkeypatch.setattr(math, "comb", short_comb)
        code = build_inner_code(2**36, 2, 10.0, 1)
        assert code.shape == (2, 2**18) and np.all(code.sum(axis=1) == 10.0 * 2**17)
        assert inner_pulse_bound(2**36, 2) == 2**17

    @pytest.mark.parametrize("n", [1, 4, 5, 16, 17, 4625])
    def test_patterns_cover_exactly_two_to_the_length(self, n):
        length = inner_length(n)
        assert inner_patterns_cover(n, 2**length)
        assert not inner_patterns_cover(n, 2**length + 1)

    def test_inner_length_is_ceil_sqrt(self):
        assert all(inner_length(n) == math.ceil(math.sqrt(n)) for n in range(1, 2**20 + 1))

    def test_inner_length_exact_past_float_precision(self):
        k = 2**31
        assert math.ceil(math.sqrt(k * k + 1)) == k  # the float form rounds down here
        assert inner_length(k * k) == k
        assert inner_length(k * k + 1) == k + 1

    def test_noiseless_round_trip(self):
        code = build_inner_code(64, 8, peak=10.0, seed=2)
        mu = standalone_intensities(code)
        for row in range(8):
            assert _ml_decode(np.round(mu[row]), _ml_table(mu)) == row

    def test_two_codewords_low_error(self):
        mu = standalone_intensities(build_inner_code(64, 2, peak=10.0, seed=3))
        table = _ml_table(mu)
        errors = 0
        trials = 10000
        for t in range(trials):
            rng = spawn(77, t)
            row = int(rng.integers(2))
            errors += _ml_decode(rng.poisson(mu[row]), table) != row
        assert errors / trials < 0.01


class TestBuildDIFCode:
    def test_average_power_guard(self):
        tight = PowerConstraints(peak=5.0, average=0.5)
        with pytest.raises(ValueError):
            build_dif_code(90, FIG2, tight, num_messages=8, hash_range=4)

    @pytest.mark.parametrize("average", [1.0, 1.7, 1.8, 5.0])
    def test_average_power_guard_is_dif_power_fits(self, average):
        # n=90: 30 pilot pulses plus 5 of the 10 inner slots, 35 * 5.0 <= 100 * average
        constraints = PowerConstraints(peak=5.0, average=average)
        fits = dif_power_fits(90, FIG2.memory, 4, constraints)
        assert fits == (average >= 1.75)
        try:
            build_dif_code(90, FIG2, constraints, num_messages=8, hash_range=4)
        except ValueError:
            assert not fits
        else:
            assert fits

    def test_phase2_includes_pilot_tail_only_when_truncated(self):
        aligned = build_dif_code(90, FIG2, full(5.0), num_messages=8, hash_range=4, seed=0)
        np.testing.assert_allclose(
            aligned.phase2_intensities, standalone_intensities(aligned.inner)
        )
        truncated = build_dif_code(91, FIG2, full(5.0), num_messages=8, hash_range=4, seed=0)
        spill = truncated.phase2_intensities - standalone_intensities(truncated.inner)
        assert spill[:, : FIG2.memory].max() > 0
        np.testing.assert_allclose(spill[:, FIG2.memory :], 0.0, atol=1e-12)


def full_input_phase2(code):
    """Phase-2 intensities from the whole pilot + codeword input, sliced after the pilot."""
    return np.stack([effective_intensity(np.concatenate([code.pilot, c]), code.params)[code.n :]
                     for c in code.inner])


class TestPhase2Window:
    """The phase-2 table convolves only the pilot's last memory slots with each
    codeword; it equals the full-input table bit for bit."""

    @staticmethod
    def direct_code(rng, n, memory):
        params = ChannelParams(memory=memory, hit_probs=rng.dirichlet(np.ones(memory + 1)),
                               slot_duration=float(rng.uniform(0.1, 3.0)),
                               dark_rate=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])))
        peak = float(rng.uniform(0.5, 20.0))
        return DIFCode(n, params, PowerConstraints(peak, peak), HashFamily(0, 3, 3), 0.2, 1e-12)

    @pytest.mark.parametrize("memory", range(9))
    def test_equals_the_full_input_table(self, memory):
        rng = np.random.default_rng(1000 + memory)
        for _ in range(20):
            # inner lengths ceil(sqrt(n)) from 2 to 30; three codewords need n >= 2
            code = self.direct_code(rng, int(rng.integers(max(memory + 1, 2), 901)), memory)
            table = code.phase2_intensities
            assert table.shape == (3, code.inner.shape[1] + memory)
            assert np.array_equal(table, full_input_phase2(code))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_pilot_shorter_than_the_memory(self, n):
        # dif_encode used to raise "need at least one block" on such a code
        with pytest.raises(ValueError, match="^n must be an integer >= 6 and below"):
            self.direct_code(np.random.default_rng(n), n, 5)

    def test_memory_does_not_grow_with_the_pilot(self):
        # the pilot and phase 1's intensities are n floats each; the phase-2
        # table, built from the pilot's last memory slots, adds under 1 MiB
        n = 2**18
        tracemalloc.start()
        try:
            code = build_dif_code(n, FIG2, full(5.0), num_messages=16, hash_range=16, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < code.pilot.base.nbytes + 8 * (n + FIG2.memory) + 2**20


class TestDIFCodeChecks:
    """A DIFCode is made from its parameters alone: the typicality filter and
    the inner code are derived from them, and a bad parameter is rejected when
    the code is made, not later inside the protocol."""

    @staticmethod
    def make(**changes):
        parameters = dict(n=9, params=FIG2, constraints=full(10.0),
                          hashes=HashFamily(master_seed=1, num_messages=4, hash_range=2),
                          eps=0.2, tail_mass=DEFAULT_TAIL_MASS)
        return DIFCode(**{**parameters, **changes})

    def test_is_the_code_build_dif_code_makes(self):
        code = self.make()
        built = build_dif_code(9, FIG2, full(10.0), num_messages=4, hash_range=2, seed=1)
        assert code.typ == built.typ and np.array_equal(code.inner, built.inner)
        assert np.array_equal(code.inner, build_inner_code(9, 2, 10.0, 1))

    @pytest.mark.parametrize("peak", [0.5, 10.0, 37.0])
    def test_typ_holds_the_pilot_laws(self, peak):
        # a typ with a tenth of the pilot's laws could be passed in: every string was atypical
        code = self.make(constraints=full(peak))
        assert np.array_equal(code.typ.letter_laws, letter_laws(FIG2, code.constraints.peak))

    def test_peak_past_max_mean_is_rejected_when_made(self):
        # dif_encode used to raise numpy's bare "lam value too large" at the first pilot
        with pytest.raises(ValueError, match="exceeds MAX_MEAN"):
            self.make(constraints=PowerConstraints(1e300, 1e300))

    @pytest.mark.parametrize("part", ["typ", "inner", "pilot", "phase1_intensity",
                                      "phase2_intensities", "phase2_table"])
    def test_derived_parts_cannot_be_passed_in(self, part):
        code = self.make()
        with pytest.raises(ValueError, match=f"field {part} is declared with init=False"):
            dataclasses.replace(code, **{part: getattr(code, part)})
        with pytest.raises(TypeError, match=part):
            self.make(**{part: getattr(code, part)})

    def test_fields_are_stored_as_int_and_float(self):
        code = self.make(n=np.int64(9))
        assert type(code.n) is int and code.n == 9
        assert code.inner.dtype == float and code.inner.shape == (2, 3)


class TestDerivedWhenMade:
    """A DIF code builds its pilot, intensity tables, typicality table and hash
    key when it is made, as read-only arrays; the protocol's readers build nothing."""

    @staticmethod
    def code():
        return build_dif_code(64, FIG2, full(10.0), num_messages=8, hash_range=4, seed=2)

    def test_tables_built_once_when_made(self, monkeypatch):
        calls = dict.fromkeys(["effective_intensity", "poisson_pmf_truncated"], 0)
        for name in calls:
            def counted(*args, _name=name, _original=getattr(dif_protocol, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(dif_protocol, name, counted)
        code = self.code()
        made = {"effective_intensity": 1 + 4, "poisson_pmf_truncated": FIG2.memory + 1}
        assert calls == made
        y, _ = dif_encode(3, code, seed=5)
        dif_identify(3, y, code)
        estimate_dif_errors(code, [(0, 1), (2, 3)], trials=20, seed=6)
        estimate_inner_error(code, trials=20, seed=7)
        assert calls == made  # the readers build nothing

    def test_every_part_is_set_when_made(self):
        code = self.code()
        assert {f.name for f in dataclasses.fields(code)} <= set(vars(code))
        assert "_table" in vars(code.typ) and "_keyed" in vars(code.hashes)

    def test_derived_arrays_are_read_only(self):
        code = self.code()
        for array in (code.inner, code.pilot, code.phase1_intensity, code.phase2_intensities,
                      *code.phase2_table, code.typ.letter_laws):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_letter_laws_are_a_read_only_copy(self):
        # the caller's array was stored, and the table was built from whatever
        # it held at the first typicality test
        laws = np.array([6.1, 3.1, 1.1])
        spec = TypicalSetSpec(0.2, laws, 1e-12)
        laws[:] = 0.0
        assert spec.letter_laws.tolist() == [6.1, 3.1, 1.1]
        unaliased = TypicalSetSpec(0.2, [6.1, 3.1, 1.1], 1e-12)
        assert np.array_equal(spec._table[2], unaliased._table[2])


class TestTypeIIOracle:
    """With an ideal hash a wrong message is accepted with probability exactly
    P(typical)/M, whatever the inner code's error: the decoded value depends on
    the blocks only through the sender's own hash value."""

    def test_pooled_acceptances_match_one_over_m(self):
        # dif-pilot's config, where P(atypical) is about 1e-4: 1/M stands for P(typical)/M.
        # The tested messages of one trial are independent given the decoded value.
        hash_range, trials, pairs = 32, 2000, [(s, t) for s in (0, 1) for t in range(2, 6)]
        code = build_dif_code(900, FIG2, full(10.0), num_messages=64, hash_range=hash_range,
                              seed=7)
        result = estimate_dif_errors(code, pairs, trials, seed=7)
        accepts = sum(result.type2[pair].successes for pair in pairs)
        count, p = len(pairs) * trials, 1 / hash_range
        z = (accepts - count * p) / math.sqrt(count * p * (1 - p))
        assert abs(z) <= 4, f"{accepts} of {count} accepted, z = {z:.2f}"

    # the bound is the 0.9999 quantile of chi-square with hash_range - 1 degrees of freedom
    @pytest.mark.parametrize("hash_range, bound", [(32, 69.1), (24, 57.1)])
    def test_hash_values_are_uniform_over_messages(self, hash_range, bound):
        family = HashFamily(master_seed=7, num_messages=4096, hash_range=hash_range)
        blocks = np.random.default_rng(7).poisson(letter_laws(FIG2, 10.0), size=(300, 3))
        values = np.array([hash_message(j, blocks, family) for j in range(4096)])
        assert values.min() >= 1 and values.max() <= hash_range
        observed, expected = np.bincount(values - 1, minlength=hash_range), 4096 / hash_range
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < bound, f"chi-square {chi2:.1f} over {hash_range} values"


class TestRecordsCompareByIdentity:
    """Records holding arrays compare and hash by identity; a generated
    ``__eq__`` would compare the arrays and raise."""

    MAKERS = {
        "DIFCode": lambda: build_dif_code(9, FIG2, full(10.0), num_messages=4, hash_range=2),
        "DIFTranscript": lambda: dif_encode(
            0, build_dif_code(9, FIG2, full(10.0), num_messages=4, hash_range=2), seed=1)[1],
        "DICodebook": lambda: construct_codebook(16, FIG2, full(10.0), 0.1, 0.1, 4, seed=3),
        "FiniteDistribution": lambda: poisson_pmf_truncated(3.0),
    }

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_equal_contents_are_distinct_records(self, kind):
        record, twin = self.MAKERS[kind](), self.MAKERS[kind]()
        assert record == record and not record != record
        assert record != twin and not record == twin
        assert record in [record] and twin not in [record]
        assert {record: 1}[record] == 1 and twin not in {record: 1}


class TestProtocolRoundTrip:
    def code(self, n=90, hash_range=8, seed=5):
        return build_dif_code(n, FIG2, full(5.0), num_messages=32,
                              hash_range=hash_range, seed=seed)

    def test_encode_deterministic(self):
        code = self.code()
        y1, t1 = dif_encode(3, code, seed=21)
        y2, t2 = dif_encode(3, code, seed=21)
        assert np.array_equal(y1, y2)
        assert t1.hash_value == t2.hash_value
        assert np.array_equal(t1.blocks, t2.blocks)

    def test_transcript_hash_consistent(self):
        code = self.code()
        _, transcript = dif_encode(4, code, seed=8)
        assert transcript.hash_value == hash_message(4, transcript.blocks, code.hashes)

    def test_output_length(self):
        code = self.code(n=91)
        y, _ = dif_encode(0, code, seed=1)
        assert y.size == code.output_length == 91 + code.inner.shape[1] + FIG2.memory

    def test_end_to_end_identity(self):
        # whenever the string is typical and the inner code decodes right,
        # the true message is accepted; exact, not statistical
        code = self.code()
        for seed in range(40):
            y, transcript = dif_encode(7, code, seed=seed)
            decoded = _ml_decode(y[code.n :], code.phase2_table) + 1
            if transcript.typical and decoded == transcript.hash_value:
                assert dif_identify(7, y, code)
            else:
                assert not dif_identify(7, y, code)

    def test_atypical_output_rejected_for_every_candidate(self):
        code = self.code()
        y = np.zeros(code.output_length, dtype=int)  # silent record: atypical
        assert all(not dif_identify(i, y, code) for i in range(5))

    @pytest.mark.parametrize("index", [10**6, 32, -1, 2.5, True])
    def test_index_checked_before_typicality(self, index):
        code = self.code()
        y = np.zeros(code.output_length, dtype=int)  # silent record: atypical
        with pytest.raises(IndexError, match="is not an integer in"):
            dif_identify(index, y, code)

    def test_wrong_message_accepted_only_on_collision(self):
        code = self.code()
        y, transcript = dif_encode(2, code, seed=13)
        if transcript.typical:
            for other in (5, 9, 11):
                expected = hash_message(other, transcript.blocks, code.hashes) == \
                    _ml_decode(y[code.n :], code.phase2_table) + 1
                assert dif_identify(other, y, code) == expected

    def test_index_validated(self):
        code = self.code()
        with pytest.raises(IndexError):
            dif_encode(code.hashes.num_messages, code, seed=0)

    def test_integral_float_counts_decide_like_ints(self):
        code = self.code()
        for seed in range(6):
            y, _ = dif_encode(3, code, seed=seed)
            for candidate in range(8):
                assert dif_identify(candidate, y.astype(float), code) == \
                    dif_identify(candidate, y, code)

    @pytest.mark.parametrize("bad", [-1, 0.5, 1e19, 2.0**63])
    def test_bad_counts_rejected(self, bad):
        code = self.code()
        y, _ = dif_encode(3, code, seed=0)
        y = y.astype(float)
        y[5] = bad
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            dif_identify(3, y, code)


class TestErrorEstimation:
    def test_degenerate_single_hash(self):
        # hash range 1: decoding always agrees, so the only rejection source
        # is atypicality and every tested wrong message is accepted otherwise
        code = build_dif_code(60, FIG2, full(5.0), num_messages=4, hash_range=1, seed=2)
        res = estimate_dif_errors(code, [(0, 1)], trials=300, seed=3)
        assert res.type2[(0, 1)].estimate == pytest.approx(
            1.0 - res.type1[0].estimate, abs=1e-12
        )

    def test_deterministic(self):
        code = build_dif_code(60, FIG2, full(5.0), num_messages=8, hash_range=4, seed=2)
        r1 = estimate_dif_errors(code, [(0, 1), (1, 0)], trials=200, seed=5)
        r2 = estimate_dif_errors(code, [(0, 1), (1, 0)], trials=200, seed=5)
        assert r1.type1 == r2.type1 and r1.type2 == r2.type2

    def test_rows_pinned(self):
        # pinned digest of the rows; any change to the per-trial
        # streams, the hashing or the Type I / Type II tally moves it
        code = build_dif_code(60, FIG2, full(5.0), num_messages=8, hash_range=4, seed=2)
        res = estimate_dif_errors(code, [(0, 1), (2, 0), (0, 3), (1, 0)], trials=200, seed=5)
        rows = json.dumps(res.rows(None), sort_keys=True).encode()
        assert hashlib.sha256(rows).hexdigest() == \
            "8749cc0a452cee5c20074c5fba1039bfdbe5372b2c4c9090164c037274f97752"
        assert res.extras == {"atypical": 51}

    def test_repeated_pair_measured_once(self):
        code = build_dif_code(60, FIG2, full(5.0), num_messages=8, hash_range=4, seed=2)
        once = estimate_dif_errors(code, [(0, 1), (1, 0)], trials=200, seed=5)
        twice = estimate_dif_errors(code, [(0, 1), (0, 1), (1, 0)], trials=200, seed=5)
        assert twice.rows(None) == once.rows(None)
        assert twice.extras["atypical"] == once.extras["atypical"]

    def test_pair_validation(self):
        code = build_dif_code(60, FIG2, full(5.0), num_messages=8, hash_range=4, seed=2)
        with pytest.raises(ValueError):
            estimate_dif_errors(code, [(1, 1)], trials=10, seed=0)
        with pytest.raises(ValueError):
            estimate_dif_errors(code, [(0, 1)], trials=0, seed=0)
        # int() truncated 0.5 to sender 0; a pair index is a message index
        for pair in [(0.5, 1), (0, 8), (0, "1")]:
            with pytest.raises(IndexError, match="^message index .* is not an integer in"):
                estimate_dif_errors(code, [pair], trials=1, seed=0)
        assert estimate_dif_errors(code, [(1.0, np.int64(0))], trials=3, seed=0).type2.keys() \
            == {(1, 0)}

    def test_inner_error_estimate(self):
        code = build_dif_code(100, FIG2, full(10.0), num_messages=8, hash_range=4, seed=2)
        est = estimate_inner_error(code, trials=2000, seed=9)
        assert est.estimate <= 0.005
        est2 = estimate_inner_error(code, trials=2000, seed=9)
        assert est.estimate == est2.estimate


class TestDarkRateZero:
    """Without dark counts, silent slots have intensity 0 and log(0) = -inf."""

    SILENT = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0,
                           dark_rate=0.0)

    def code(self):
        return build_dif_code(64, self.SILENT, full(10.0), num_messages=8, hash_range=4, seed=2)

    def test_ml_scores_unchanged_and_silent(self):
        mu = self.code().phase2_intensities
        assert (mu == 0).any()
        for value in range(mu.shape[0]):
            y = spawn(3, "silent", value).poisson(mu[value])
            with np.errstate(divide="ignore", invalid="ignore"):
                log_mu = np.log(mu)
                terms = np.where(y[None, :] > 0, y[None, :] * log_mu, 0.0)
            scores = terms.sum(axis=1) - mu.sum(axis=1)
            assert _ml_decode(y, _ml_table(mu)) == int(np.argmax(scores))

    def test_protocol_runs_without_warnings(self):
        code = self.code()
        assert estimate_inner_error(code, trials=200, seed=4).estimate < 0.25  # chance: 0.75
        res = estimate_dif_errors(code, [(0, 1), (1, 0)], trials=50, seed=5)
        assert set(res.type2) == {(0, 1), (1, 0)}


class TestCollisionBound:
    def test_single_message_always_feasible(self):
        assert collision_bound_check(1, 16, 0.5, 10.0)

    def test_insufficient_exponent_infeasible(self):
        # type2 * log2(M) = 0.5 * 2 = 1: no margin
        assert not collision_bound_check(2, 4, 0.5, 10.0)
        assert not collision_bound_check(10**9, 4, 0.5, 60.0)

    def test_margin_supports_double_exponential_count(self):
        # type2 * log2(M) = 2 with a 2^10 typical set: N up to 2^(2^10)
        num = 2 ** (2**10)
        assert collision_bound_check(num, 2**20, 0.1, 10.0)
        assert not collision_bound_check(2 ** (2**10 + 1), 2**20, 0.1, 10.0)

    def test_precondition(self):
        with pytest.raises(ValueError):
            collision_bound_check(4, 8, 0.125, 10.0)

    # NaN budgets and NaN sizes answered False, and a budget of 1.5 True.
    @pytest.mark.parametrize("num_messages", [1, 64])
    @pytest.mark.parametrize("budget, bits", [(math.nan, 10.0), (1.5, 10.0), (1.0, 10.0),
                                              (0.0, 10.0), (-0.5, 10.0), (0.5, math.nan)])
    def test_meaningless_budget_or_size_rejected(self, num_messages, budget, bits):
        name = "log_size_bits" if budget == 0.5 else "type2_budget"
        with pytest.raises(ValueError, match=rf"^{name} must be a number in [(\[]"):
            collision_bound_check(num_messages, 32, budget, bits)

    def test_set_sizes_past_the_float_range_are_feasible(self):
        assert collision_bound_check(4, 16, 0.5, 10**400)

    def test_collisions_must_be_rarer_than_the_budget(self):
        with pytest.raises(ValueError, match=r"^type2_budget must be a number in \(0\.5, 1\), got 0\.5$"):
            collision_bound_check(64, 2, 0.5, 10.0)


class TestMaxMessages:
    def test_silent_channel_zero(self):
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.0)
        assert max_messages_log_log(30, params, peak=0.0) == 0.0

    def test_linear_in_n(self):
        a = max_messages_log_log(300, FIG2, peak=5.0)
        b = max_messages_log_log(600, FIG2, peak=5.0)
        assert b == pytest.approx(2 * a)

    def test_value_from_entropy_oracle(self):
        expected = 100.0 * (
            poisson_entropy_exact(3.1)
            + poisson_entropy_exact(1.6)
            + poisson_entropy_exact(0.6)
        )
        assert max_messages_log_log(300, FIG2, peak=5.0) == pytest.approx(expected)

    def test_rate_independent_of_n(self):
        rates = {
            round(dif_rate(max_messages_log_log(n, FIG2, peak=5.0), n), 12)
            for n in (60, 300, 900)
        }
        assert len(rates) == 1

    def test_rate_values(self):
        assert dif_rate(0.0, 10) == 0.0
        expected = (
            poisson_entropy_exact(3.1)
            + poisson_entropy_exact(1.6)
            + poisson_entropy_exact(0.6)
        ) / 3.0
        assert dif_rate(max_messages_log_log(300, FIG2, peak=5.0), 300) == pytest.approx(
            expected
        )

    def test_constructed_code_rate_below_bound(self):
        code = build_dif_code(90, FIG2, full(5.0), num_messages=128, hash_range=16,
                              seed=1)
        achieved = dif_rate(math.log2(math.log2(code.hashes.num_messages)), code.n)
        bound = dif_rate(max_messages_log_log(code.n, FIG2, peak=5.0), code.n)
        assert achieved <= bound


class TestHashUniformity:
    def test_chi_square_not_rejected(self):
        family = HashFamily(master_seed=99, num_messages=64, hash_range=16)
        rng = np.random.default_rng(55)
        draws = np.empty(4000, dtype=np.int64)
        for t in range(4000):
            draws[t] = hash_message(3, rng.poisson([3.1, 1.6, 0.6], size=(16, 3)), family)
        from scipy.stats import chisquare

        counts = np.bincount(draws, minlength=17)[1:]
        _, p_value = chisquare(counts)
        assert p_value > 0.01


def reference_typical_test(blocks, spec):
    """The per-position typicality loop: one bincount and one tolerance per
    in-block position, stopping at the first atypical position."""
    count = blocks.shape[0]
    for k, (y_max, pmf) in enumerate(position_pmfs(spec)):
        values = np.minimum(blocks[:, k], y_max + 1)
        freq = np.bincount(values, minlength=y_max + 2) / count
        slack = 4.0 * np.sqrt(pmf * (1.0 - pmf) / count)
        tol = spec.eps * pmf + spec.eps / (y_max + 1) + slack
        if np.any(np.abs(freq - pmf) > tol):
            return False
    return True


def per_position_tolerance(spec, count):
    """The typicality tolerance at ``count`` blocks, computed position by
    position and joined."""
    return np.concatenate([
        spec.eps * mass + spec.eps / (y_max + 1)
        + TYPICALITY_GUARD_SIGMAS * np.sqrt(mass * (1.0 - mass) / count)
        for y_max, mass in position_pmfs(spec)])


class TestTypicalityEquivalence:
    """typical_test's one-bincount form against the per-position loop."""

    COUNTS = (1, 3, 50, 300)

    def cases(self, eps, seed):
        rng = np.random.default_rng(seed)
        for case in range(40):
            laws = rng.uniform(0.0, 8.0, size=int(rng.integers(1, 5)))
            if case % 4 == 0:
                laws[rng.integers(laws.size)] = 0.0
            spec = TypicalSetSpec(eps=eps, letter_laws=laws, tail_mass=1e-12)
            for count in self.COUNTS:  # every count on one spec: one tolerance each
                scale = rng.choice([0.5, 1.0, 1.0, 1.5])
                blocks = rng.poisson(laws * scale, size=(count, laws.size))
                if case % 5 == 0:
                    blocks[rng.integers(count), rng.integers(laws.size)] = 10**6  # overflow
                yield spec, blocks

    @pytest.mark.parametrize("eps", [0.05, 0.2, 1.0, math.inf])
    def test_same_decision_as_per_position_loop(self, eps):
        outcomes = set()
        for spec, blocks in self.cases(eps, seed=int(min(eps, 9) * 100)):
            expected = math.isinf(eps) or reference_typical_test(blocks, spec)
            assert typical_test(blocks, spec) == expected
            outcomes.add(expected)
        if not math.isinf(eps):
            assert outcomes == {True, False}

    @pytest.mark.parametrize("eps", [0.05, 0.2, 1.0])
    def test_table_tolerance_is_per_position_expression(self, eps):
        # typical_test's tolerance, from the table, bit for bit the joined
        # per-position vectors at every count
        for spec, blocks in self.cases(eps, seed=int(eps * 100)):
            caps, offsets, pmf, slack, variance = spec._table
            pmfs = list(position_pmfs(spec))
            assert caps.tolist() == [y_max + 1 for y_max, _ in pmfs]
            assert offsets.tolist() == np.cumsum([0] + [m.size for _, m in pmfs])[:-1].tolist()
            assert np.array_equal(pmf, np.concatenate([m for _, m in pmfs]))
            count = blocks.shape[0]
            tolerance = (spec.eps * pmf + slack
                         + TYPICALITY_GUARD_SIGMAS * np.sqrt(variance / count))
            assert np.array_equal(tolerance, per_position_tolerance(spec, count))

    def test_true_law_decisions_match_at_every_count(self):
        spec = pilot_spec(FIG2, 10.0, eps=0.2)
        rng = np.random.default_rng(8)
        for count in (1, 3, 50, 300, 50, 1):  # cached tolerances reused
            for _ in range(25):
                blocks = rng.poisson(spec.letter_laws, size=(count, 3))
                assert typical_test(blocks, spec) == reference_typical_test(blocks, spec)

    def test_negative_count_rejected(self):
        spec = pilot_spec(FIG2, 10.0, eps=0.2)
        blocks = np.ones((4, 3), dtype=int)
        blocks[2, 2] = -1
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            typical_test(blocks, spec)


def reference_ml_decode(y, intensities):
    """ML decode with log mu and the row totals computed on every call."""
    with np.errstate(divide="ignore"):
        log_mu = np.log(intensities)
    terms = np.multiply(y, log_mu, out=np.zeros(log_mu.shape), where=y > 0)
    return int(np.argmax(terms.sum(axis=1) - intensities.sum(axis=1)))


class TestCachedMLTable:
    @pytest.mark.parametrize("params", [FIG2, TestDarkRateZero.SILENT], ids=["dark", "silent"])
    def test_same_argmax_as_uncached_decode(self, params):
        code = build_dif_code(64, params, full(10.0), num_messages=8, hash_range=4, seed=2)
        table = code.phase2_table
        assert table is code.phase2_table  # built once, when the code is made
        np.testing.assert_array_equal(table[1], code.phase2_intensities.sum(axis=1))
        for t in range(300):
            rng = spawn(11, "ml", t)
            y = rng.poisson(code.phase2_intensities[int(rng.integers(4))] * rng.uniform(0.3, 2))
            assert _ml_decode(y, table) == reference_ml_decode(y, code.phase2_intensities)


class TestHashLayout:
    """hash_message is BLAKE2b keyed by the master seed (16 bytes, signed,
    little-endian) over the index (16 bytes), the row and column counts
    (8 bytes each) and the blocks as C-ordered little-endian uint64."""

    FAMILY = HashFamily(master_seed=-12345, num_messages=2**128 - 1, hash_range=2**127)

    @staticmethod
    def independent(index, blocks, family):
        rows = np.asarray(blocks)
        h = hashlib.blake2b(digest_size=16,
                            key=family.master_seed.to_bytes(16, "little", signed=True))
        h.update(index.to_bytes(16, "little"))
        h.update(rows.shape[0].to_bytes(8, "little") + rows.shape[1].to_bytes(8, "little"))
        h.update(rows.astype("<u8").tobytes(order="C"))
        return 1 + int.from_bytes(h.digest(), "little") % family.hash_range

    def test_golden_value(self):
        # taken before the keyed state was cached; a layout change moves it
        blocks = np.arange(30).reshape(10, 3) % 7
        assert hash_message(2**100 + 3, blocks, self.FAMILY) == \
            35383990021219476947010034854211507993
        small = HashFamily(master_seed=7, num_messages=64, hash_range=32)
        assert hash_message(5, blocks, small) == 30

    def test_every_array_form_hashes_its_values(self):
        rng = np.random.default_rng(3)
        big = rng.poisson(4.0, size=(20, 6))
        forms = {
            "int64": big[:, :3].copy(),
            "uint64": big[:, :3].astype(np.uint64),
            "big-endian": big[:, :3].astype(">i8"),
            "sliced": big[::2, 1::2],
            "fortran": np.asfortranarray(big[:, :3]),
            "nested-list": big[:5, :3].tolist(),
            "int32": big[:, :3].astype(np.int32),
            "integral-float": big[:, :3].astype(float),
        }
        for name, blocks in forms.items():
            for index in (0, 17, 2**127 - 1):
                assert hash_message(index, blocks, self.FAMILY) == \
                    self.independent(index, blocks, self.FAMILY), name
        assert hash_message(1, forms["sliced"], self.FAMILY) == \
            hash_message(1, np.ascontiguousarray(forms["sliced"]), self.FAMILY)

    def test_keyed_state_is_not_consumed(self):
        family = HashFamily(master_seed=2**126, num_messages=10, hash_range=7)
        blocks = np.ones((3, 3), dtype=int)
        first = [hash_message(i, blocks, family) for i in range(10)]
        assert first == [hash_message(i, blocks, family) for i in range(10)]
        assert first == [self.independent(i, blocks, family) for i in range(10)]

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 3)])
    def test_blocks_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match="blocks must be 2-D"):
            hash_message(0, np.zeros(shape, dtype=int), self.FAMILY)
