import math

import numpy as np
import pytest

from dipc import (
    ChannelParams,
    HashFamily,
    PowerConstraints,
    blockize,
    build_dif_code,
    build_inner_code,
    build_pilot,
    collision_bound_check,
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
from dipc.dif_protocol import TypicalSetSpec, dif_power_fits, letter_laws, _ml_decode
from dipc.seeding import spawn

FIG2 = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0, dark_rate=0.1)


def standalone_intensities(inner):
    """Each inner codeword's intensity sent alone, shape (M, length + memory)."""
    return np.stack([effective_intensity(c, FIG2) for c in inner.codewords])


class TestPilot:
    def test_degenerate_memory_fills_every_slot(self):
        params = ChannelParams(memory=0, hit_probs=[1.0])
        pilot = build_pilot(5, params, peak=3.0)
        np.testing.assert_allclose(pilot.input_sequence(), 3.0)

    def test_truncated_final_block(self):
        pilot = build_pilot(7, FIG2, peak=4.0)
        np.testing.assert_allclose(
            pilot.input_sequence(), [4.0, 0, 0, 4.0, 0, 0, 4.0]
        )
        assert pilot.block_count == 3
        assert pilot.full_block_count == 2

    def test_expected_block_receptions(self):
        pilot = build_pilot(9, FIG2, peak=10.0)
        mu = effective_intensity(pilot.input_sequence(), FIG2)[:9]
        np.testing.assert_allclose(mu, np.tile([6.1, 3.1, 1.1], 3))

    def test_letter_laws(self):
        np.testing.assert_allclose(letter_laws(FIG2, 10.0), [6.1, 3.1, 1.1])

    def test_positive_amplitude_required(self):
        with pytest.raises(ValueError):
            build_pilot(5, FIG2, peak=0.0)


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
        return TypicalSetSpec.from_channel(FIG2, 5.0, eps=eps)

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

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            typical_test(np.zeros((5, 2), dtype=int), self.spec())

    def test_log_size_memoryless(self):
        params = ChannelParams(memory=0, hit_probs=[1.0])
        spec = TypicalSetSpec.from_channel(params, 1.0, eps=0.2)
        assert typical_log_size(100, spec) == pytest.approx(
            100 * poisson_entropy_exact(1.0)
        )

    def test_log_size_with_memory(self):
        params = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], dark_rate=0.0)
        spec = TypicalSetSpec.from_channel(params, 10.0, eps=0.2)
        expected = math.ceil(100 / 3) * (
            poisson_entropy_exact(6.0)
            + poisson_entropy_exact(3.0)
            + poisson_entropy_exact(1.0)
        )
        assert typical_log_size(100, spec) == pytest.approx(expected)

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
        with pytest.raises(IndexError):
            hash_message(100, self.blocks(), self.FAMILY)


class TestInnerCode:
    def test_size_one_decodes_to_one(self):
        code = build_inner_code(25, 1, peak=5.0, seed=0)
        y = np.zeros(code.length + FIG2.memory)
        assert _ml_decode(y, standalone_intensities(code)) == 0

    def test_codewords_distinct_and_balanced(self):
        code = build_inner_code(64, 8, peak=5.0, seed=1)
        assert code.length == 8
        rows = {row.tobytes() for row in code.codewords}
        assert len(rows) == 8
        on = (code.codewords > 0).sum(axis=1)
        assert np.all(on == 4)

    def test_range_too_large(self):
        with pytest.raises(ValueError):
            build_inner_code(4, 5, peak=5.0, seed=0)  # length 2, max 4

    def test_noiseless_round_trip(self):
        code = build_inner_code(64, 8, peak=10.0, seed=2)
        mu = standalone_intensities(code)
        for row in range(8):
            assert _ml_decode(np.round(mu[row]), mu) == row

    def test_two_codewords_low_error(self):
        mu = standalone_intensities(build_inner_code(64, 2, peak=10.0, seed=3))
        errors = 0
        trials = 10000
        for t in range(trials):
            rng = spawn(77, t)
            row = int(rng.integers(2))
            errors += _ml_decode(rng.poisson(mu[row]), mu) != row
        assert errors / trials < 0.01


class TestBuildDIFCode:
    def test_average_power_guard(self):
        tight = PowerConstraints(peak=5.0, average=0.5)
        with pytest.raises(ValueError):
            build_dif_code(90, FIG2, peak=5.0, num_messages=8, hash_range=4,
                           constraints=tight)

    def test_peak_guard(self):
        with pytest.raises(ValueError):
            build_dif_code(90, FIG2, peak=5.0, num_messages=8, hash_range=4,
                           constraints=PowerConstraints(peak=4.0, average=4.0))

    @pytest.mark.parametrize("average", [1.0, 1.7, 1.8, 5.0])
    def test_average_power_guard_is_dif_power_fits(self, average):
        # n=90: 30 pilot pulses plus 5 of the 10 inner slots, 35 * 5.0 <= 100 * average
        constraints = PowerConstraints(peak=5.0, average=average)
        fits = dif_power_fits(90, FIG2.memory, 4, 5.0, constraints)
        assert fits == (average >= 1.75)
        try:
            build_dif_code(90, FIG2, peak=5.0, num_messages=8, hash_range=4,
                           constraints=constraints)
        except ValueError:
            assert not fits
        else:
            assert fits

    def test_phase2_includes_pilot_tail_only_when_truncated(self):
        aligned = build_dif_code(90, FIG2, peak=5.0, num_messages=8, hash_range=4, seed=0)
        np.testing.assert_allclose(
            aligned.phase2_intensities, standalone_intensities(aligned.inner)
        )
        truncated = build_dif_code(91, FIG2, peak=5.0, num_messages=8, hash_range=4, seed=0)
        spill = truncated.phase2_intensities - standalone_intensities(truncated.inner)
        assert spill[:, : FIG2.memory].max() > 0
        np.testing.assert_allclose(spill[:, FIG2.memory :], 0.0, atol=1e-12)


class TestProtocolRoundTrip:
    def code(self, n=90, hash_range=8, seed=5):
        return build_dif_code(n, FIG2, peak=5.0, num_messages=32,
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
        assert y.size == code.output_length == 91 + code.inner.length + FIG2.memory

    def test_end_to_end_identity(self):
        # whenever the string is typical and the inner code decodes right,
        # the true message is accepted; exact, not statistical
        code = self.code()
        for seed in range(40):
            y, transcript = dif_encode(7, code, seed=seed)
            decoded = _ml_decode(y[code.n :], code.phase2_intensities) + 1
            if transcript.typical and decoded == transcript.hash_value:
                assert dif_identify(7, y, code)
            else:
                assert not dif_identify(7, y, code)

    def test_atypical_output_rejected_for_every_candidate(self):
        code = self.code()
        y = np.zeros(code.output_length, dtype=int)  # silent record: atypical
        assert all(not dif_identify(i, y, code) for i in range(5))

    def test_wrong_message_accepted_only_on_collision(self):
        code = self.code()
        y, transcript = dif_encode(2, code, seed=13)
        if transcript.typical:
            for other in (5, 9, 11):
                expected = hash_message(other, transcript.blocks, code.hashes) == \
                    _ml_decode(y[code.n :], code.phase2_intensities) + 1
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

    @pytest.mark.parametrize("bad", [-1, 0.5])
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
        code = build_dif_code(60, FIG2, peak=5.0, num_messages=4, hash_range=1, seed=2)
        res = estimate_dif_errors(code, [(0, 1)], trials=300, seed=3)
        assert res.type2[(0, 1)].estimate == pytest.approx(
            1.0 - res.type1[0].estimate, abs=1e-12
        )

    def test_deterministic(self):
        code = build_dif_code(60, FIG2, peak=5.0, num_messages=8, hash_range=4, seed=2)
        r1 = estimate_dif_errors(code, [(0, 1), (1, 0)], trials=200, seed=5)
        r2 = estimate_dif_errors(code, [(0, 1), (1, 0)], trials=200, seed=5)
        assert r1.type1 == r2.type1 and r1.type2 == r2.type2

    def test_pair_validation(self):
        code = build_dif_code(60, FIG2, peak=5.0, num_messages=8, hash_range=4, seed=2)
        with pytest.raises(ValueError):
            estimate_dif_errors(code, [(1, 1)], trials=10, seed=0)
        with pytest.raises(ValueError):
            estimate_dif_errors(code, [(0, 1)], trials=0, seed=0)

    def test_inner_error_estimate(self):
        code = build_dif_code(100, FIG2, peak=10.0, num_messages=8, hash_range=4, seed=2)
        est = estimate_inner_error(code, trials=2000, seed=9)
        assert est.estimate <= 0.005
        est2 = estimate_inner_error(code, trials=2000, seed=9)
        assert est.estimate == est2.estimate


class TestDarkRateZero:
    """Without dark counts, silent slots have intensity 0 and log(0) = -inf."""

    SILENT = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0,
                           dark_rate=0.0)

    def code(self):
        return build_dif_code(64, self.SILENT, peak=10.0, num_messages=8, hash_range=4, seed=2)

    def test_ml_scores_unchanged_and_silent(self):
        mu = self.code().phase2_intensities
        assert (mu == 0).any()
        for value in range(mu.shape[0]):
            y = spawn(3, "silent", value).poisson(mu[value])
            with np.errstate(divide="ignore", invalid="ignore"):
                log_mu = np.log(mu)
                terms = np.where(y[None, :] > 0, y[None, :] * log_mu, 0.0)
            scores = terms.sum(axis=1) - mu.sum(axis=1)
            assert _ml_decode(y, mu) == int(np.argmax(scores))

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
        code = build_dif_code(90, FIG2, peak=5.0, num_messages=128, hash_range=16,
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
