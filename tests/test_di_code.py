import math

import numpy as np
import pytest

from dipc import (
    ChannelParams,
    ConstructionStrategy,
    DICodebook,
    PowerConstraints,
    calibrate_threshold,
    construct_codebook,
    decode_identify,
    di_rate,
    estimate_errors,
    memory_scaling,
    min_distance_radius,
    packing_log_count_bound,
    poisson_bhattacharyya_sq,
    power_ball_radius,
    reparameterize,
    validate_codebook,
)
from dipc.di_code import _ordered_pair, _statistics, di_rate_from_bits
from dipc.seeding import spawn

FIG2 = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0, dark_rate=0.1)
POWER = PowerConstraints(peak=10.0, average=10.0)


def small_book(n=16, max_codewords=8, seed=3) -> DICodebook:
    return construct_codebook(
        n, FIG2, POWER, 0.1, 0.1,
        strategy=ConstructionStrategy(max_codewords=max_codewords), seed=seed,
    )


class TestMemoryScaling:
    def test_zero_exponent_gives_one(self):
        for n in (2, 17, 1024):
            assert memory_scaling(n, 0.0) == 1

    def test_half_exponent(self):
        assert memory_scaling(100, 0.5) == 10

    def test_float_snap_near_integer(self):
        # 1024**0.3 evaluates below 8.0 in floating point
        assert memory_scaling(1024, 0.3) == 8

    def test_acceptance_configuration(self):
        assert memory_scaling(32, 0.25) == 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            memory_scaling(1, 0.5)
        with pytest.raises(ValueError):
            memory_scaling(64, 1.0)
        with pytest.raises(ValueError):
            memory_scaling(64, -0.1)


class TestReparameterize:
    def test_zero_input_sits_at_dark_floor(self):
        s = reparameterize(np.zeros(4), FIG2)
        np.testing.assert_allclose(s, math.sqrt(0.1))

    def test_memoryless_perfect_squares(self):
        params = ChannelParams(memory=0, hit_probs=[1.0])
        np.testing.assert_allclose(reparameterize([4.0, 9.0], params), [2.0, 3.0])

    def test_burst_with_dark_rate(self):
        s = reparameterize([10.0, 0.0, 0.0], FIG2)
        np.testing.assert_allclose(s, np.sqrt([6.1, 3.1, 1.1]))

    def test_only_first_n_slots(self):
        assert reparameterize([10.0, 0.0, 0.0], FIG2).size == 3


class TestPowerBall:
    def test_radius_value(self):
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.1)
        c = PowerConstraints(peak=2.0, average=1.0)
        g = power_ball_radius(100, params, c, memory=3, packing_radius=0.5)
        assert g.ball_radius == pytest.approx(17.606816861659009, abs=1e-12)
        assert g.rate_limit == 1.0

    def test_peak_binds_when_smaller(self):
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.0)
        c = PowerConstraints(peak=1.0, average=5.0)
        g = power_ball_radius(10, params, c, memory=2, packing_radius=0.5)
        assert g.rate_limit == 1.0
        assert g.ball_radius == g.peak_ball_radius < g.avg_ball_radius

    def test_memory_below_one_rejected(self):
        with pytest.raises(ValueError):
            power_ball_radius(10, FIG2, POWER, memory=0, packing_radius=0.5)


class TestPackingBound:
    def geometry(self, n, l, r):
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.0)
        g = power_ball_radius(n, params, PowerConstraints(peak=l * l / n, average=l * l / n),
                              memory=1, packing_radius=r)
        assert g.ball_radius == pytest.approx(l)
        return g

    def test_equal_radii_give_n_bits(self):
        g = self.geometry(50, 4.0, 4.0)
        assert packing_log_count_bound(g) == pytest.approx(50.0)

    def test_doubling_ball_adds_n_bits(self):
        small = packing_log_count_bound(self.geometry(30, 5.0, 0.5))
        large = packing_log_count_bound(self.geometry(30, 10.0, 0.5))
        assert large - small == pytest.approx(30.0, abs=1e-9)

    def test_matches_direct_arithmetic(self):
        g = self.geometry(100, 17.606816861659009, 0.50538382629739482)
        expected = 100 * math.log2(2 * 17.606816861659009 / 0.50538382629739482)
        assert packing_log_count_bound(g) == pytest.approx(expected, abs=1e-9)

    def test_radius_exceeding_ball_rejected(self):
        with pytest.raises(ValueError):
            packing_log_count_bound(self.geometry(10, 1.0, 2.0))


class TestConstruction:
    def test_deterministic_in_seed(self):
        a = small_book(seed=5)
        b = small_book(seed=5)
        c = small_book(seed=6)
        assert np.array_equal(a.codewords, b.codewords)
        assert not np.array_equal(a.codewords, c.codewords)

    def test_structural_invariants(self):
        book = small_book(n=24, max_codewords=12)
        validate_codebook(book)  # power + pairwise separation
        geometry = power_ball_radius(
            book.block_length, FIG2, POWER, FIG2.memory, book.packing_radius
        )
        energies = (book.sqrt_codewords**2).sum(axis=1)
        assert np.all(energies <= geometry.ball_radius**2 + 1e-9)
        assert math.log2(book.num_codewords) <= packing_log_count_bound(geometry)

    def test_two_separated_words_at_n_one(self):
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.1)
        c = PowerConstraints(peak=100.0, average=100.0)
        strategy = ConstructionStrategy(
            levels=(0.0, 100.0), max_codewords=2, composition="uniform"
        )
        book = construct_codebook(1, params, c, 0.1, 0.1, strategy=strategy, seed=1)
        assert book.num_codewords == 2
        s = book.sqrt_codewords
        assert np.linalg.norm(s[0] - s[1]) >= 2 * book.packing_radius

    def test_average_budget_rescaling(self):
        tight = PowerConstraints(peak=10.0, average=2.0)
        book = construct_codebook(
            12, FIG2, tight, 0.1, 0.1,
            strategy=ConstructionStrategy(max_codewords=4), seed=9,
        )
        sums = book.codewords.sum(axis=1)
        assert np.all(sums <= 12 * 2.0 + 1e-9)

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            construct_codebook(8, FIG2, POWER, 0.1, 0.1,
                               strategy=ConstructionStrategy(max_codewords=0))
        with pytest.raises(ValueError):
            construct_codebook(8, FIG2, POWER, 0.1, 0.1,
                               strategy=ConstructionStrategy(levels=(0.0, 20.0)))

    def test_budget_must_be_feasible(self):
        with pytest.raises(ValueError):
            construct_codebook(8, FIG2, POWER, 0.6, 0.5)

    @pytest.mark.parametrize("scale", [0.5, 0.999, 0.0, -1.0, math.nan])
    def test_separation_scale_below_one_rejected_up_front(self, scale):
        with pytest.raises(ValueError, match="separation_scale must be at least 1"):
            construct_codebook(4, FIG2, POWER, 0.1, 0.1,
                               strategy=ConstructionStrategy(separation_scale=scale))


def reference_codewords(n, params, constraints, strategy, seed):
    """Codewords of the per-row packing loop (one norm per accepted codeword,
    one candidate at a time) at Type I and Type II budgets 0.1."""
    radius = min_distance_radius(0.1, 0.1)
    needed = 2.0 * radius * strategy.separation_scale
    levels = strategy.levels
    if levels is None:
        levels = (0.0, constraints.peak / 2.0, constraints.peak)
    levels = np.sort(np.asarray(levels, dtype=float))
    counts = np.full(levels.size, n // levels.size)
    counts[: n % levels.size] += 1
    base = np.repeat(levels, counts)
    budget = n * constraints.average
    accepted, sqrt_accepted = [], []
    rejections = 0
    candidate = 0
    while len(accepted) < strategy.max_codewords:
        rng = spawn(seed, "codebook", candidate)
        candidate += 1
        if strategy.composition == "balanced":
            x = rng.permutation(base)
        else:
            x = rng.choice(levels, size=n)
        total = x.sum()
        if total > budget:
            x = x * (budget / total)
        s = reparameterize(x, params)
        if sqrt_accepted:
            dmin = min(float(np.linalg.norm(s - t)) for t in sqrt_accepted)
            if dmin < needed:
                rejections += 1
                if rejections >= strategy.stop_rejections_per_word * max(1, len(accepted)):
                    break
                continue
        accepted.append(x)
        sqrt_accepted.append(s)
        rejections = 0
    return np.stack(accepted)


class TestPackingEquivalence:
    """The batched packing test accepts exactly the codewords the per-row loop did."""

    CASES = {
        "balanced-streak-stop": (6, POWER, ConstructionStrategy(max_codewords=1000)),
        "uniform-streak-stop": (4, POWER, ConstructionStrategy(max_codewords=1000,
                                                               composition="uniform")),
        "on-off-levels": (7, POWER, ConstructionStrategy(levels=(0.0, 10.0),
                                                         max_codewords=1000,
                                                         stop_rejections_per_word=20)),
        "wider-separation": (8, POWER, ConstructionStrategy(max_codewords=1000,
                                                            separation_scale=2.0)),
        "average-rescaled": (6, PowerConstraints(peak=10.0, average=3.0),
                             ConstructionStrategy(max_codewords=1000, composition="uniform",
                                                  separation_scale=1.5)),
        "pool-growth-balanced": (12, POWER, ConstructionStrategy(max_codewords=150)),
        "pool-growth-uniform": (10, POWER, ConstructionStrategy(max_codewords=200,
                                                                composition="uniform",
                                                                stop_rejections_per_word=5)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_codewords_as_per_row_loop(self, case, seed):
        n, constraints, strategy = self.CASES[case]
        book = construct_codebook(n, FIG2, constraints, 0.1, 0.1, strategy=strategy, seed=seed)
        expected = reference_codewords(n, FIG2, constraints, strategy, seed)
        assert book.num_codewords == expected.shape[0]
        assert np.array_equal(book.codewords, expected)

    def test_cases_cover_pool_growth(self):
        for case in ("pool-growth-balanced", "pool-growth-uniform"):
            n, constraints, strategy = self.CASES[case]
            book = construct_codebook(n, FIG2, constraints, 0.1, 0.1, strategy=strategy)
            assert book.num_codewords > 64


class TestDecoder:
    def test_rounded_intensity_accepted_with_generous_threshold(self):
        book = small_book()
        book.threshold = 10.0
        i = 0
        y = np.round(book.intensities[i])
        assert decode_identify(y, i, book)

    def test_infinite_threshold_accepts_everything(self):
        book = small_book()
        book.threshold = math.inf
        y = np.zeros(book.block_length + FIG2.memory)
        assert all(decode_identify(y, i, book) for i in range(book.num_codewords))

    def test_index_out_of_range(self):
        book = small_book()
        y = np.zeros(book.block_length + FIG2.memory)
        with pytest.raises(IndexError):
            decode_identify(y, book.num_codewords, book)

    def test_wrong_length_rejected(self):
        book = small_book()
        with pytest.raises(ValueError):
            decode_identify(np.zeros(3), 0, book)

    def test_decides_with_the_calibration_statistic(self):
        # the threshold sits exactly on one row's statistic, so any ulp of
        # disagreement between the two computations flips a decision
        book = small_book(max_codewords=3)
        n = book.block_length
        outputs = spawn(5, "decoder").poisson(book.intensities[0], size=(200, n + FIG2.memory))
        for j in range(book.num_codewords):
            stats = _statistics(outputs, book.intensities[j], n)
            book.threshold = float(np.sort(stats)[100])
            decisions = [decode_identify(row, j, book) for row in outputs]
            assert decisions == list(stats <= book.threshold)


class TestCalibration:
    def test_needs_enough_trials(self):
        with pytest.raises(ValueError):
            calibrate_threshold(small_book(), 10, seed=0)

    def test_vacuous_budget_returns_smallest_observed(self):
        book = small_book()
        theta_vacuous = calibrate_threshold(book, 1000, seed=4, target=1.0)
        theta_tight = calibrate_threshold(book, 1000, seed=4, target=0.1)
        assert theta_vacuous <= theta_tight

    def test_monotone_in_target(self):
        book = small_book()
        thetas = [calibrate_threshold(book, 2000, seed=4, target=t)
                  for t in (0.05, 0.1, 0.3)]
        assert thetas[0] >= thetas[1] >= thetas[2]

    def test_single_codeword_threshold_near_quantile(self):
        book = small_book(max_codewords=1)
        theta = calibrate_threshold(book, 10000, seed=7, target=0.1)
        # independent quantile oracle with a different stream
        rng = spawn(1234, "oracle")
        outputs = rng.poisson(book.intensities[0],
                              size=(20000, book.block_length + FIG2.memory))
        stats = np.abs(outputs[:, : book.block_length]
                       - book.intensities[0][: book.block_length]).mean(axis=1)
        q90 = np.quantile(stats, 0.9)
        assert theta == pytest.approx(q90, abs=0.05)

    def test_updates_book_threshold(self):
        book = small_book()
        theta = calibrate_threshold(book, 1000, seed=4)
        assert book.threshold == theta


class TestStatistic:
    def outputs(self, n=13, trials=50, memory=2):
        """Poisson counts and a different intensity to test them against."""
        rng = spawn(4, "statistic")
        sent, tested = rng.uniform(0.1, 12.0, size=(2, n + memory))
        return rng.poisson(sent, size=(trials, n + memory)), tested

    @pytest.mark.parametrize("n", [1, 7, 13])
    def test_matches_mean_absolute_deviation_bit_for_bit(self, n):
        y, mu = self.outputs()
        expected = np.abs(y[:, :n] - mu[:n]).mean(axis=1)
        assert np.array_equal(_statistics(y, mu, n), expected)
        assert np.array_equal(_statistics(y[:, :n].astype(float), mu, n), expected)

    def test_does_not_modify_outputs(self):
        y, mu = self.outputs()
        counts = y[:, :13].astype(float)
        before = counts.copy()
        _statistics(counts, mu, 13)
        assert np.array_equal(counts, before)


def enumerated_pairs(count):
    return [(i, j) for i in range(count) for j in range(count) if i != j]


class TestPairSampling:
    @pytest.mark.parametrize("count", [2, 3, 65, 96, 130])
    def test_index_mapping_matches_enumeration(self, count):
        pairs = enumerated_pairs(count)
        assert [_ordered_pair(k, count) for k in range(len(pairs))] == pairs

    def test_subsampled_pairs_match_enumerated_draw(self):
        count, seed = 65, 12
        rng = np.random.default_rng(0)
        book = DICodebook(
            codewords=rng.uniform(0.0, 10.0, size=(count, 4)),
            params=FIG2, constraints=POWER, packing_radius=0.1,
            type1_budget=0.1, type2_budget=0.1, threshold=2.0,
        )
        res = estimate_errors(book, 1, seed=seed)
        all_pairs = enumerated_pairs(count)
        picks = spawn(seed, "pairs").choice(len(all_pairs), size=64 * count, replace=False)
        assert list(res.type2) == [all_pairs[k] for k in sorted(picks)]
        assert res.extras["pair_sampling"] == "subsampled"


class TestErrorEstimation:
    def test_infinite_threshold_degenerate_rates(self):
        book = small_book(max_codewords=3)
        book.threshold = math.inf
        res = estimate_errors(book, 200, seed=1)
        assert all(e.estimate == 0.0 for e in res.type1.values())
        assert all(e.estimate == 1.0 for e in res.type2.values())

    def test_identical_codewords_complementary_rates(self):
        # Hand-built book violating separation: same outputs, same decoders.
        x = np.full(10, 4.0)
        book = DICodebook(
            codewords=np.stack([x, x]),
            params=FIG2,
            constraints=POWER,
            packing_radius=0.1,
            type1_budget=0.1,
            type2_budget=0.1,
            threshold=1.8,
        )
        res = estimate_errors(book, 500, seed=2)
        for (i, j), est in res.type2.items():
            assert est.estimate == pytest.approx(1.0 - res.type1[i].estimate, abs=1e-12)

    def test_separated_pair_meets_budgets(self):
        book = small_book(n=32, max_codewords=2)
        calibrate_threshold(book, 5000, seed=3, target=0.05)
        res = estimate_errors(book, 10000, seed=4)
        assert res.max_type1.estimate <= 0.1
        assert res.max_type2.estimate <= 0.1

    def test_deterministic_given_seed(self):
        book = small_book(max_codewords=3)
        book.threshold = 2.0
        r1 = estimate_errors(book, 300, seed=8)
        r2 = estimate_errors(book, 300, seed=8)
        assert [e.estimate for e in r1.type1.values()] == [
            e.estimate for e in r2.type1.values()
        ]
        assert r1.type2 == r2.type2

    def test_empty_inputs_rejected(self):
        book = small_book(max_codewords=2)
        with pytest.raises(ValueError):
            estimate_errors(book, 0, seed=1)


class TestTwoSidedOracle:
    """Decoder j tells codeword i from j with Type I + Type II at least
    1 - TV >= 1 - sqrt(1 - BC^2), BC^2 the Bhattacharyya overlap of the two
    output laws.  Upper budgets cannot catch a sampler or statistic fault
    that makes errors look too small; this floor does."""

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_error_sum_clears_bhattacharyya_floor(self, delta):
        a = np.array([10.0, 0.0, 5.0, 10.0, 0.0, 5.0, 10.0, 0.0])
        b = a.copy()
        b[1] += delta  # too close for construct_codebook, so built by hand
        book = DICodebook(codewords=np.stack([a, b]), params=FIG2, constraints=POWER,
                          packing_radius=0.1, type1_budget=0.1, type2_budget=0.1)
        calibrate_threshold(book, 2000, seed=1)
        res = estimate_errors(book, 4000, seed=2)
        mu = book.intensities  # all n + memory slots
        bc_sq = math.prod(poisson_bhattacharyya_sq(p, q) for p, q in zip(mu[0], mu[1]))
        floor = 1.0 - math.sqrt(1.0 - bc_sq)
        assert floor > 0.5
        for (i, j), type2 in res.type2.items():
            assert res.type1[j].ci_high + type2.ci_high >= floor


class TestRate:
    def test_single_message_rate_zero(self):
        assert di_rate(1, 16) == 0.0

    def test_unit_rate(self):
        n = 4
        count = 2 ** int(n * math.log2(n))
        assert di_rate(count, n) == pytest.approx(1.0)

    def test_from_bits_matches_packing_example(self):
        bits = 100 * math.log2(2 * 17.606816861659009 / 0.50538382629739482)
        assert di_rate_from_bits(bits, 100) == pytest.approx(
            bits / (100 * math.log2(100))
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            di_rate(0, 8)
        with pytest.raises(ValueError):
            di_rate(4, 1)


class TestRateCeilingTrend:
    def test_constructed_rate_stays_under_finite_n_ceiling(self):
        # soft regression trend: with memory floor(n^0.25), the achieved rate
        # sits below the normalized packing ceiling at every n on the grid
        from dipc import converse_log_count

        kappa = 0.25
        hit_prob_sets = {2: [0.6, 0.3, 0.1], 3: [0.5, 0.3, 0.15, 0.05]}
        for n in (32, 64, 128):
            memory = memory_scaling(n, kappa)
            params = ChannelParams(memory=memory, hit_probs=hit_prob_sets[memory],
                                   dark_rate=0.1)
            book = construct_codebook(
                n, params, POWER, 0.1, 0.1,
                strategy=ConstructionStrategy(max_codewords=16), seed=n,
            )
            ceiling = converse_log_count(n, kappa, params, POWER, 0.1, 0.1)
            assert di_rate(book.num_codewords, n) <= ceiling.normalized


class TestConsistencyWithSeparation:
    def test_bhattacharyya_product_at_exact_distance(self):
        # Two memoryless codewords at sqrt-distance exactly 2r: the slotwise
        # closed-form overlap product equals 1 - delta^2.
        type1, type2 = 0.1, 0.1
        r = min_distance_radius(type1, type2)
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.2)
        s0 = math.sqrt(params.dark_rate)
        s1 = s0 + 2 * r
        x1 = s1**2 - params.dark_rate
        from dipc import poisson_bhattacharyya_sq

        product = poisson_bhattacharyya_sq(params.dark_rate, x1 + params.dark_rate)
        delta = 1 - type1 - type2
        assert product == pytest.approx(1 - delta**2, abs=1e-12)
