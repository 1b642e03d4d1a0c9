import dataclasses
import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from dipc import (
    ChannelParams,
    DICodebook,
    PowerConstraints,
    calibrate_threshold,
    construct_codebook,
    decode_identify,
    di_rate,
    effective_intensity,
    estimate_errors,
    memory_scaling,
    min_distance_radius,
    packing_log_count_bound,
    poisson_bhattacharyya_sq,
    power_ball_radius,
    validate_codebook,
)
from dipc import di_code
from dipc.di_code import _statistics
from dipc.seeding import spawn

FIG2 = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0, dark_rate=0.1)
POWER = PowerConstraints(peak=10.0, average=10.0)


def small_book(n=16, max_codewords=8, seed=3) -> DICodebook:
    return construct_codebook(n, FIG2, POWER, 0.1, 0.1, max_codewords, seed=seed)


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


def sqrt_codewords(book: DICodebook) -> np.ndarray:
    """The square-root intensity coordinates of the codewords' first n slots."""
    return np.sqrt(book.intensities[:, : book.block_length])


def sqrt_codeword(x, params=FIG2) -> np.ndarray:
    """The square-root intensity coordinates of one codeword."""
    return sqrt_codewords(DICodebook(np.array([x], dtype=float), params, POWER, 0.0, 0.1, 0.1))[0]


class TestCodebookShape:
    @pytest.mark.parametrize("codewords", [np.empty((0, 3)), np.empty((3, 0)), np.ones(3)],
                             ids=["no-rows", "no-columns", "1-D"])
    def test_codewords_must_be_a_nonempty_matrix(self, codewords):
        with pytest.raises(ValueError, match="codewords must be a nonempty 2-D array"):
            DICodebook(codewords, FIG2, POWER, 0.1, 0.1, 0.1)

    def test_nested_list_stored_as_array(self):
        # a list passed the shape check, then num_codewords raised AttributeError
        book = DICodebook([[1.0, 2.0]], FIG2, POWER, 0.1, 0.1, 0.1)
        assert (book.num_codewords, book.block_length) == (1, 2)
        assert book.codewords.dtype == np.float64


class TestCodebookFields:
    """The checks and the intensity table a book gets when it is made."""

    NAN_THRESHOLD = r"^threshold must be a number in \[-inf, inf\], got nan$"

    def test_nan_threshold_rejected_when_made(self):
        with pytest.raises(ValueError, match=self.NAN_THRESHOLD):
            DICodebook([[1.0, 2.0]], FIG2, POWER, 0.1, 0.1, 0.1, math.nan)
        with pytest.raises(ValueError, match=self.NAN_THRESHOLD):
            dataclasses.replace(small_book(max_codewords=2), threshold=math.nan)

    def test_nan_threshold_assignment_rejected(self):
        # a NaN threshold rejected every message: all estimates read 0, and the
        # saved file failed to load
        book = construct_codebook(8, FIG2, POWER, 0.1, 0.1, max_codewords=3, seed=1)
        with pytest.raises(ValueError, match=self.NAN_THRESHOLD):
            book.threshold = float("nan")
        assert book.threshold == math.inf

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf])
    def test_infinite_thresholds_stay_valid(self, threshold):
        book = DICodebook([[1.0, 2.0]], FIG2, POWER, 0.1, 0.1, 0.1, threshold)
        book.threshold = -threshold
        assert book.threshold == -threshold

    @pytest.mark.parametrize("radius", [math.nan, -0.1, math.inf])
    def test_packing_radius_must_lie_in_zero_to_infinity(self, radius):
        # a NaN radius failed every distance test, so identical codewords validated
        x = np.full(10, 4.0)
        with pytest.raises(ValueError, match=r"^packing_radius must be a number in \[0, inf\)"):
            DICodebook(np.stack([x, x]), FIG2, POWER, radius, 0.1, 0.1)

    @pytest.mark.parametrize("rate", [-1.0, math.nan])
    def test_negative_rate_rejected_when_made(self, rate):
        message = r"^codewords must be a nonempty 2-D array of numbers in \[0, inf\)"
        with pytest.raises(ValueError, match=message):
            DICodebook([[1.0, rate]], FIG2, POWER, 0.1, 0.1, 0.1)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_table_built_once_when_made(self, cpus, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        codewords = small_book(max_codewords=4).codewords
        calls = []
        original = di_code.effective_intensity
        monkeypatch.setattr(di_code, "effective_intensity",
                            lambda *args: calls.append(args) or original(*args))
        book = DICodebook(codewords, FIG2, POWER, 0.1, 0.1, 0.1)
        assert len(calls) == book.num_codewords
        calibrate_threshold(book, 1000, seed=3, target=0.1)
        estimate_errors(book, 100, seed=4)
        assert len(calls) == book.num_codewords  # the readers build nothing

    def test_codewords_are_a_read_only_copy(self):
        # the caller's rows were stored: rewriting them left the table behind
        rows = small_book(max_codewords=3).codewords.copy()
        book = DICodebook(rows, FIG2, POWER, 0.1, 0.1, 0.1)
        rows[0] = 0.0
        assert book.codewords is not rows and not np.array_equal(book.codewords, rows)
        assert np.array_equal(book.intensities,
                              np.stack([effective_intensity(x, FIG2) for x in book.codewords]))
        for array in (book.codewords, book.intensities):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("name", ["codewords", "params", "constraints", "packing_radius",
                                      "type1_budget", "type2_budget", "intensities"])
    def test_only_the_threshold_is_assigned_once_made(self, name):
        # reversed codewords used to be stored beside the unchanged table
        book = small_book(max_codewords=3)
        value = getattr(book, name)
        with pytest.raises(AttributeError, match=f"cannot assign '{name}'"):
            setattr(book, name, value[::-1].copy() if isinstance(value, np.ndarray) else value)
        assert getattr(book, name) is value
        book.threshold = 1.0
        assert book.threshold == 1.0

    def test_replace_builds_its_own_equal_table(self):
        book = small_book()
        copy = dataclasses.replace(book)
        assert copy.intensities is not book.intensities
        assert np.array_equal(copy.intensities, book.intensities)


class TestReparameterize:
    """The sqrt-domain map of the codewords' first n intensity slots."""

    def test_zero_input_sits_at_dark_floor(self):
        s = sqrt_codeword(np.zeros(4))
        np.testing.assert_allclose(s, math.sqrt(0.1))

    def test_memoryless_perfect_squares(self):
        params = ChannelParams(memory=0, hit_probs=[1.0])
        np.testing.assert_allclose(sqrt_codeword([4.0, 9.0], params), [2.0, 3.0])

    def test_burst_with_dark_rate(self):
        s = sqrt_codeword([10.0, 0.0, 0.0])
        np.testing.assert_allclose(s, np.sqrt([6.1, 3.1, 1.1]))

    def test_only_first_n_slots(self):
        assert sqrt_codeword([10.0, 0.0, 0.0]).size == 3


class TestPowerBall:
    def test_radius_value(self):
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.1)
        c = PowerConstraints(peak=2.0, average=1.0)
        radius = power_ball_radius(100, params, c, memory=3)
        assert radius == pytest.approx(17.606816861659009, abs=1e-12)
        assert radius == math.sqrt(100 * 0.1 + 100 * min(1.0, 2.0) * 3 * 1.0)

    def test_peak_binds_when_smaller(self):
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.0)
        c = PowerConstraints(peak=1.0, average=5.0)
        radius = power_ball_radius(10, params, c, memory=2)
        assert radius == math.sqrt(10 * 0.0 + 10 * min(5.0, 1.0) * 2 * 1.0)
        assert radius < math.sqrt(10 * 0.0 + 10 * 5.0 * 2 * 1.0)

    def test_memory_below_one_rejected(self):
        with pytest.raises(ValueError):
            power_ball_radius(10, FIG2, POWER, memory=0)


class TestPackingBound:
    def ball(self, n, l):
        """Power-ball radius of a channel and budget chosen so that it is l."""
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.0)
        radius = power_ball_radius(n, params,
                                   PowerConstraints(peak=l * l / n, average=l * l / n), memory=1)
        assert radius == pytest.approx(l)
        return radius

    def test_equal_radii_give_n_bits(self):
        assert packing_log_count_bound(50, self.ball(50, 4.0), 4.0) == pytest.approx(50.0)

    def test_doubling_ball_adds_n_bits(self):
        small = packing_log_count_bound(30, self.ball(30, 5.0), 0.5)
        large = packing_log_count_bound(30, self.ball(30, 10.0), 0.5)
        assert large - small == pytest.approx(30.0, abs=1e-9)

    def test_matches_direct_arithmetic(self):
        bits = packing_log_count_bound(100, self.ball(100, 17.606816861659009),
                                       0.50538382629739482)
        expected = 100 * math.log2(2 * 17.606816861659009 / 0.50538382629739482)
        assert bits == pytest.approx(expected, abs=1e-9)

    def test_radius_exceeding_ball_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^packing_radius \(at most ball_radius\) must be a number"
                                 r" in \(0, 1\.0\], got 2"):
            packing_log_count_bound(10, self.ball(10, 1.0), 2.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^packing_radius \(at most ball_radius\) must be a number"
                                 r" in \(0, 1\.0\], got 0"):
            packing_log_count_bound(10, self.ball(10, 1.0), 0.0)

    @pytest.mark.parametrize("ball_radius", [math.nan, -math.inf])
    def test_radius_outside_a_nan_or_negative_ball_rejected(self, ball_radius):
        with pytest.raises(ValueError, match=r"^ball_radius must be a number in \(0, inf\), got "):
            packing_log_count_bound(8, ball_radius, 0.5)


class TestConstruction:
    @pytest.mark.parametrize("budgets", [(math.nan, 0.1), (0.1, math.nan)])
    def test_nan_budget_rejected(self, budgets):
        # a NaN radius fails every distance test: the book held one codeword
        with pytest.raises(ValueError, match=r"^type[12]_budget must be a number in \[0, 1\)"):
            construct_codebook(8, FIG2, POWER, *budgets, 10, seed=1)

    def test_deterministic_in_seed(self):
        a = small_book(seed=5)
        b = small_book(seed=5)
        c = small_book(seed=6)
        assert np.array_equal(a.codewords, b.codewords)
        assert not np.array_equal(a.codewords, c.codewords)

    def test_structural_invariants(self):
        book = small_book(n=24, max_codewords=12)
        validate_codebook(book)  # power + pairwise separation
        ball = power_ball_radius(book.block_length, FIG2, POWER, FIG2.memory)
        energies = (sqrt_codewords(book)**2).sum(axis=1)
        assert np.all(energies <= ball**2 + 1e-9)
        assert math.log2(book.num_codewords) <= packing_log_count_bound(
            book.block_length, ball, book.packing_radius)

    def test_two_separated_words_at_n_two(self):
        # the balanced words of (0, 100) at n=2 are (0, 100) and (100, 0)
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.1)
        c = PowerConstraints(peak=100.0, average=100.0)
        book = construct_codebook(2, params, c, 0.1, 0.1, max_codewords=2, levels=(0.0, 100.0),
                                  seed=1)
        assert book.num_codewords == 2
        s = sqrt_codewords(book)
        assert np.linalg.norm(s[0] - s[1]) >= 2 * book.packing_radius

    def test_average_budget_rescaling(self):
        tight = PowerConstraints(peak=10.0, average=2.0)
        book = construct_codebook(12, FIG2, tight, 0.1, 0.1, max_codewords=4, seed=9)
        sums = book.codewords.sum(axis=1)
        assert np.all(sums <= 12 * 2.0 + 1e-9)

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            construct_codebook(8, FIG2, POWER, 0.1, 0.1, max_codewords=0)
        with pytest.raises(ValueError):
            construct_codebook(8, FIG2, POWER, 0.1, 0.1, max_codewords=64, levels=(0.0, 20.0))

    @pytest.mark.parametrize("levels", [[], [math.nan, 10.0]], ids=["empty", "nan"])
    def test_level_alphabet_must_be_nonempty_numbers_in_range(self, levels):
        message = r"^levels must be a nonempty 1-D array of numbers in \[0, 10\.0\], got "
        with pytest.raises(ValueError, match=message):
            construct_codebook(8, FIG2, POWER, 0.1, 0.1, max_codewords=4, levels=levels)

    def test_budget_separating_no_pair_gives_one_codeword(self):
        tight = PowerConstraints(peak=0.001, average=0.0001)
        book = construct_codebook(3, FIG2, tight, 1e-6, 1e-6, max_codewords=64)
        assert book.num_codewords == 1

    def test_budget_must_be_feasible(self):
        with pytest.raises(ValueError):
            construct_codebook(8, FIG2, POWER, 0.6, 0.5, max_codewords=64)

    @pytest.mark.parametrize("scale", [0.5, 0.999, 0.0, -1.0, math.nan])
    def test_separation_scale_below_one_rejected_up_front(self, scale):
        with pytest.raises(ValueError, match=r"^separation_scale must be a number in \[1, inf\)"):
            construct_codebook(4, FIG2, POWER, 0.1, 0.1, max_codewords=64,
                               separation_scale=scale)


class TestConverseCheck:
    """A constructed book holds at most 2**packing_log_count_bound codewords
    of its own geometry: the sphere-packing converse, loose at desk scale but
    broken by a packer that accepts too close a pair or by a wrong radius."""

    @pytest.mark.parametrize("n, levels, max_codewords, size", [
        (7, (0.0, 10.0), 100000, 35),  # the di-pack book: all C(7, 3) on/off patterns
        (24, None, 40, 40),  # default levels (0, peak/2, peak)
    ], ids=["di-pack", "default-levels"])
    def test_size_within_packing_bound(self, n, levels, max_codewords, size):
        book = construct_codebook(n, FIG2, POWER, 0.1, 0.1, max_codewords, levels=levels, seed=7)
        assert book.num_codewords == size
        bits = packing_log_count_bound(n, power_ball_radius(n, FIG2, POWER, FIG2.memory),
                                       book.packing_radius)
        assert book.num_codewords <= 2**bits
        if n == 7:
            assert 38.5 < bits < 39.5  # log2(35) = 5.1 bits against about 39


def reference_candidate(n, constraints, levels, seed, k):
    """Candidate ``k`` drawn on its own: a permutation of the balanced level
    multiset, rescaled onto the average-power budget when its sum exceeds it."""
    levels = np.sort(np.asarray(levels, dtype=float))
    counts = np.full(levels.size, n // levels.size)
    counts[: n % levels.size] += 1
    x = spawn(seed, "codebook", k).permutation(np.repeat(levels, counts))
    budget = n * constraints.average
    total = x.sum()
    return x * (budget / total) if total > budget else x


def reference_codewords(n, params, constraints, seed, max_codewords, levels=None,
                        separation_scale=1.0):
    """Codewords and candidate count of the per-row packing loop (one norm per
    accepted codeword, one candidate at a time) at Type I and Type II budgets
    0.1, stopping after 200 times the codebook size of consecutive rejections."""
    radius = min_distance_radius(0.1, 0.1)
    needed = 2.0 * radius * separation_scale
    if levels is None:
        levels = (0.0, constraints.peak / 2.0, constraints.peak)
    accepted, sqrt_accepted = [], []
    rejections = 0
    candidate = 0
    while len(accepted) < max_codewords:
        x = reference_candidate(n, constraints, levels, seed, candidate)
        candidate += 1
        s = sqrt_codeword(x, params)
        if sqrt_accepted:
            dmin = min(float(np.linalg.norm(s - t)) for t in sqrt_accepted)
            if dmin < needed:
                rejections += 1
                if rejections >= 200 * max(1, len(accepted)):
                    break
                continue
        accepted.append(x)
        sqrt_accepted.append(s)
        rejections = 0
    return np.stack(accepted), candidate


class TestPackingEquivalence:
    """The batched packing screen draws exactly the candidates of the per-row
    loop, in order, and accepts exactly its codewords."""

    CASES = {
        "balanced-streak-stop": (6, POWER, dict(max_codewords=1000)),
        # 35 codewords of 7 slots, then 200 * 35 rejections: more than one
        # batch at the cell cap holds.
        "on-off-levels": (7, POWER, dict(levels=(0.0, 10.0), max_codewords=1000)),
        "wider-separation": (8, POWER, dict(max_codewords=1000, separation_scale=2.0)),
        "average-rescaled": (6, PowerConstraints(peak=10.0, average=3.0),
                             dict(max_codewords=1000, separation_scale=1.5)),
        "pool-growth-balanced": (12, POWER, dict(max_codewords=150)),
        "one-codeword": (6, POWER, dict(max_codewords=1)),
        "two-codewords": (6, POWER, dict(max_codewords=2)),
        "three-codewords": (6, POWER, dict(max_codewords=3)),
        "default-levels-n24": (24, POWER, dict(max_codewords=64)),
    }

    @staticmethod
    def build(case, seed, monkeypatch):
        """The case's codebook and the candidate indices it drew, in order."""
        n, constraints, knobs = TestPackingEquivalence.CASES[case]
        drawn = []

        def counting_spawn(master, *path):
            if path[0] == "codebook":
                drawn.append(path[1])
            return spawn(master, *path)

        monkeypatch.setattr(di_code, "spawn", counting_spawn)
        book = construct_codebook(n, FIG2, constraints, 0.1, 0.1, **knobs, seed=seed)
        return book, drawn

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_codewords_as_per_row_loop(self, case, seed, monkeypatch):
        book, drawn = self.build(case, seed, monkeypatch)
        n, constraints, knobs = self.CASES[case]
        expected, candidates = reference_codewords(n, FIG2, constraints, seed, **knobs)
        assert drawn == list(range(candidates))
        assert book.num_codewords == expected.shape[0]
        assert np.array_equal(book.codewords, expected)

    # di-pack's config in bench/workloads.py: all 35 balanced patterns of
    # 7 on/off slots, then the 200 * 35 rejection streak
    DI_PACK = (7, POWER, dict(levels=(0.0, 10.0), max_codewords=100000))

    @pytest.mark.parametrize("seed", [7, 11])
    def test_di_pack_config(self, seed, monkeypatch):
        monkeypatch.setitem(self.CASES, "di-pack", self.DI_PACK)
        book, drawn = self.build("di-pack", seed, monkeypatch)
        expected, candidates = reference_codewords(7, FIG2, POWER, seed, **self.DI_PACK[2])
        assert book.num_codewords == 35
        assert drawn == list(range(candidates))
        assert np.array_equal(book.codewords, expected)

    # The default three levels at n = 12, spaced so that 5 to 9 codewords fit:
    # with room for 7, some seeds fill the book and the others stop on the
    # rejection streak, and the walk skips most candidates of every batch.
    SWEEP = (12, POWER, dict(max_codewords=7, separation_scale=3.5))

    def test_seed_sweep_fills_or_stops_like_the_per_row_loop(self, monkeypatch):
        monkeypatch.setitem(self.CASES, "sweep", self.SWEEP)
        filled = []
        for seed in range(20):
            book, drawn = self.build("sweep", seed, monkeypatch)
            expected, candidates = reference_codewords(12, FIG2, POWER, seed, **self.SWEEP[2])
            assert drawn == list(range(candidates))
            assert np.array_equal(book.codewords, expected)
            filled.append(book.num_codewords == 7)
        assert 0 < sum(filled) < 20

    # Permutations of the level multiset sum to these totals by order, and the
    # budget n * average is the lowest.  At n = 9 numpy's pairwise sum and a
    # left-to-right sum disagree on some rows.
    @pytest.mark.parametrize("n, average, totals", [
        (5, 0.18, {0.8999999999999999, 0.9, 0.9000000000000001}),
        (9, 0.2, {1.8, 1.8000000000000003}),
    ], ids=["n5", "n9-pairwise"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_rescale_straddling_the_budget(self, seed, n, average, totals, monkeypatch):
        """One batch holds rescaled and unrescaled candidates, and each is bit
        for bit the candidate drawn and rescaled on its own."""
        levels, constraints = (0.1, 0.2, 0.3), PowerConstraints(peak=0.3, average=average)
        calls = []
        original = di_code.effective_intensity

        def recording(x, params):
            calls.append((x.base, x.copy()))
            return original(x, params)

        monkeypatch.setattr(di_code, "effective_intensity", recording)
        book = construct_codebook(n, FIG2, constraints, 0.1, 0.1, 1000, levels=levels,
                                  seed=seed)
        # the candidates, then the finished book's intensity rows
        seen, rows = calls[:-book.num_codewords], calls[-book.num_codewords:]
        assert all(base is book.codewords for base, _ in rows)
        budget = n * average
        unbounded = PowerConstraints(peak=0.3, average=1.0)  # never rescales
        raw = [reference_candidate(n, unbounded, levels, seed, k) for k in range(len(seen))]
        assert {float(x.sum()) for x in raw} == totals and min(totals) == budget
        for k, (_, x) in enumerate(seen):
            assert np.array_equal(x, reference_candidate(n, constraints, levels, seed, k))
        rescaled = [not np.array_equal(x, r) for (_, x), r in zip(seen, raw)]
        assert any(
            {rescaled[k] for k in range(len(seen)) if seen[k][0] is base} == {True, False}
            for base, _ in seen
        )
        assert np.array_equal(book.codewords, reference_codewords(
            n, FIG2, constraints, seed, 1000, levels)[0])

    def test_cases_cover_pool_growth(self, monkeypatch):
        book, _ = self.build("pool-growth-balanced", 0, monkeypatch)
        assert book.num_codewords > 64

    def test_screen_stays_within_the_cell_cap(self, monkeypatch):
        shapes = []
        screen = di_code._nearest_sq_distances

        def recording(pool, batch):
            shapes.append((batch.shape[0], pool.shape[0]))
            return screen(pool, batch)

        monkeypatch.setattr(di_code, "_nearest_sq_distances", recording)
        book, _ = self.build("on-off-levels", 7, monkeypatch)
        n = book.block_length
        assert max(size * rows * n for size, rows in shapes) <= di_code._SCREEN_CELLS
        assert any(size > 1 and size == di_code._SCREEN_CELLS // (rows * n)
                   for size, rows in shapes)


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
        with pytest.raises(IndexError, match="is not an integer in"):
            decode_identify(y, book.num_codewords, book)

    # these reached numpy: a broadcast ValueError and an indexing IndexError
    @pytest.mark.parametrize("index", [True, 1.5])
    def test_index_not_an_integer(self, index):
        book = small_book()
        y = np.zeros(book.block_length + FIG2.memory)
        with pytest.raises(IndexError, match="is not an integer in"):
            decode_identify(y, index, book)

    def test_wrong_length_rejected(self):
        book = small_book()
        with pytest.raises(ValueError):
            decode_identify(np.zeros(3), 0, book)

    @pytest.mark.parametrize("slot, value", [(0, -3), (1, 0.5), (2, 1e19), (3, 2.0**63)])
    def test_counts_must_be_nonnegative_integers(self, slot, value):
        book = small_book()
        y = np.zeros(book.block_length + FIG2.memory)
        y[slot] = value
        with pytest.raises(ValueError, match="nonnegative integers"):
            decode_identify(y, 0, book)

    def test_integral_float_counts_decide_as_integers(self):
        book = small_book()
        book.threshold = 1.0
        y = np.round(book.intensities[0]).astype(np.int64)
        for i in range(book.num_codewords):
            assert decode_identify(y.astype(float), i, book) == decode_identify(y, i, book)

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
            calibrate_threshold(small_book(), 10, seed=0, target=0.1)

    # An infinite target ended in a bare OverflowError from int(inf); a target of 1
    # or more allows every rejection, so it means nothing.
    @pytest.mark.parametrize("target", [math.inf, math.nan, -0.1, -math.inf, 1.0])
    def test_target_must_be_finite_and_nonnegative(self, target):
        book = small_book()
        with pytest.raises(ValueError, match=r"^target must be a number in \[0, 1\), got "):
            calibrate_threshold(book, 1000, seed=0, target=target)
        assert book.threshold == math.inf

    def test_vacuous_budget_returns_smallest_observed(self):
        book = small_book()
        theta_vacuous = calibrate_threshold(book, 1000, seed=4, target=0.999)  # all but 0 of 1000
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
        theta = calibrate_threshold(book, 1000, seed=4, target=book.type1_budget)
        assert book.threshold == theta

    def test_order_statistic_with_ties_is_the_full_sort_value(self):
        # n = 2 leaves few distinct statistics, so the one the rule reads
        # (index 1000 - 100 - 1) is tied with its neighbours in every row
        book = small_book(n=2, max_codewords=4)
        theta = calibrate_threshold(book, 1000, seed=4, target=0.1)
        stats = np.stack([
            _statistics(spawn(4, "calibrate", i).poisson(book.intensities[i], size=(1000, 4)),
                        book.intensities[i], 2)
            for i in range(book.num_codewords)])
        order = np.sort(stats, axis=1)
        assert np.all(order[:, 898] == order[:, 899]) and np.all(order[:, 899] == order[:, 900])
        assert theta == order[:, 899].max()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_holds_no_codewords_by_trials_matrix(self, cpus, monkeypatch):
        # 64 codewords at n = 1: an N x trials float64 matrix is 10 MB, while
        # each sender's own arrays are a few trials-long vectors
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.1)
        book = DICodebook(np.linspace(0.0, 10.0, 64)[:, None], params, POWER, 0.1, 0.1, 0.1)
        trials = 20_000
        tracemalloc.start()
        try:
            calibrate_threshold(book, trials, seed=2, target=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * trials * 8 / 2


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
    SEED = 12

    @staticmethod
    def pairs_of(count):
        """``estimate_errors``'s Type II pairs on a random ``count``-codeword book."""
        rng = np.random.default_rng(0)
        book = DICodebook(
            codewords=rng.uniform(0.0, 10.0, size=(count, 4)),
            params=FIG2, constraints=POWER, packing_radius=0.1,
            type1_budget=0.1, type2_budget=0.1, threshold=2.0,
        )
        return estimate_errors(book, 1, seed=TestPairSampling.SEED)

    @pytest.mark.parametrize("count", [2, 3, 65, 96, 130])
    def test_index_mapping_matches_enumeration(self, count):
        # up to 64 codewords every ordered pair is measured; beyond, the sorted
        # picks of the "pairs" stream index the row-major enumeration
        all_pairs = enumerated_pairs(count)
        if count <= 64:
            expected = all_pairs
        else:
            picks = spawn(self.SEED, "pairs").choice(len(all_pairs), size=64 * count,
                                                     replace=False)
            expected = [all_pairs[k] for k in sorted(picks)]
        res = self.pairs_of(count)
        assert list(res.type2) == expected
        assert all(type(i) is int and type(j) is int for i, j in res.type2)

    def test_subsampled_pairs_match_enumerated_draw(self):
        count = 65
        res = self.pairs_of(count)
        all_pairs = enumerated_pairs(count)
        picks = spawn(self.SEED, "pairs").choice(len(all_pairs), size=64 * count, replace=False)
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

    def test_rows_pinned(self):
        # pinned digest of the rows; any change to the streams, the pair
        # order or the Type I / Type II tally moves it
        book = small_book(max_codewords=4)
        calibrate_threshold(book, 1000, seed=3, target=book.type1_budget)
        res = estimate_errors(book, 300, seed=8)
        rows = json.dumps(res.rows(None), sort_keys=True).encode()
        assert hashlib.sha256(rows).hexdigest() == \
            "0e148465680c0d622ac7da1fb3403b5bb109fe45926802fcd3c166b0534d2633"
        assert res.extras == {"pair_sampling": "full", "pairs": 12, "threshold": 2.0625}


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
        calibrate_threshold(book, 2000, seed=1, target=book.type1_budget)
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
            book = construct_codebook(n, params, POWER, 0.1, 0.1, max_codewords=16, seed=n)
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
