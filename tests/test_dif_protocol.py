import hashlib
import json
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
from dipc.dif_protocol import TypicalSetSpec, dif_power_fits, letter_laws, _ml_decode, _ml_table
from dipc.measures import DEFAULT_TAIL_MASS
from dipc.seeding import spawn

FIG2 = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0, dark_rate=0.1)


def full(peak):
    """A budget every slot may spend at the peak: a DIF code always fits it."""
    return PowerConstraints(peak=peak, average=peak)


def pilot_spec(params, peak, eps):
    """The typicality test build_dif_code makes for a pilot pulsing at ``peak``."""
    return TypicalSetSpec(eps=eps, letter_laws=letter_laws(params, peak),
                          tail_mass=DEFAULT_TAIL_MASS)


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
        (5, 0.0, "peak and average limits must be positive"),
        (5, -1.0, "peak and average limits must be positive"),
        (0, 3.0, "phase-1 length must be positive"),
        (-4, 3.0, "phase-1 length must be positive"),
    ], ids=["peak-zero", "peak-negative", "n-zero", "n-negative"])
    def test_degenerate_pilot_rejected(self, n, peak, message):
        with pytest.raises(ValueError, match=message):
            build_dif_code(n, FIG2, PowerConstraints(peak=peak, average=5.0), num_messages=2,
                           hash_range=1)


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

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            typical_test(np.zeros((5, 2), dtype=int), self.spec())

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
        y_max, pmf = spec._tables[0]
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
        with pytest.raises(IndexError):
            hash_message(100, self.blocks(), self.FAMILY)


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

    @pytest.mark.parametrize("index", [10**6, 32, -1, 2.5])
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
    for k, (y_max, pmf) in enumerate(spec._tables):
        values = np.minimum(blocks[:, k], y_max + 1)
        freq = np.bincount(values, minlength=y_max + 2) / count
        slack = 4.0 * np.sqrt(pmf * (1.0 - pmf) / count)
        tol = spec.eps * pmf + spec.eps / (y_max + 1) + slack
        if np.any(np.abs(freq - pmf) > tol):
            return False
    return True


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
            assert set(spec._flat[3]) == set(self.COUNTS)

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
        assert table is code.phase2_table  # computed once per code
        np.testing.assert_array_equal(table[1], code.phase2_intensities.sum(axis=1))
        for t in range(300):
            rng = spawn(11, "ml", t)
            y = rng.poisson(code.phase2_intensities[int(rng.integers(4))] * rng.uniform(0.3, 2))
            assert _ml_decode(y, table) == reference_ml_decode(y, code.phase2_intensities)


class TestHashLayout:
    """hash_message is BLAKE2b keyed by the master seed (16 bytes, signed,
    little-endian) over the index (16 bytes), the row and column counts
    (8 bytes each) and the blocks as C-ordered little-endian uint64."""

    FAMILY = HashFamily(master_seed=-12345, num_messages=2**130, hash_range=2**127)

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
