"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they complete."""

import math
import time

import numpy as np
import pytest
from scipy.stats import chisquare

from dipc import (
    ChannelParams,
    HashFamily,
    PowerConstraints,
    bhattacharyya,
    build_dif_code,
    calibrate_threshold,
    collision_bound_check,
    construct_codebook,
    converse_log_count,
    di_capacity_bounds,
    dif_capacity_lower,
    estimate_dif_errors,
    estimate_errors,
    estimate_inner_error,
    hash_message,
    memory_scaling,
    packing_log_count_bound,
    poisson_bhattacharyya_sq,
    poisson_entropy_approx,
    poisson_entropy_exact,
    poisson_pmf_truncated,
    power_ball_radius,
    tv_distance,
    validate_codebook,
)

FIG2_DARK = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0,
                          dark_rate=0.1)


class Stopwatch:
    def __init__(self, limit_s):
        self.limit = limit_s
        self.start = time.perf_counter()

    def done(self, number, message):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"criterion {number} overran: {elapsed:.1f}s"
        print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.1f}s): {message}")


def test_01_closed_form_bhattacharyya_matches_truncated_sum():
    watch = Stopwatch(5.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        mu1, mu2 = rng.uniform(0.0, 50.0, size=2)
        q1 = poisson_pmf_truncated(mu1, 1e-20)
        q2 = poisson_pmf_truncated(mu2, 1e-20)
        gap = abs(bhattacharyya(q1, q2) ** 2 - poisson_bhattacharyya_sq(mu1, mu2))
        worst = max(worst, gap)
        assert gap <= 1e-9
    watch.done(1, f"closed-form overlap matches truncated sum, worst gap {worst:.2e}")


def test_02_tv_sandwich():
    watch = Stopwatch(30.0)
    rng = np.random.default_rng(102)
    slack = 1e-6
    for _ in range(1000):
        mu1, mu2 = rng.uniform(0.0, 50.0, size=2)
        q1 = poisson_pmf_truncated(mu1)
        q2 = poisson_pmf_truncated(mu2)
        overlap = bhattacharyya(q1, q2)
        tv = tv_distance(q1, q2)
        assert 1.0 - overlap <= tv + slack
        assert tv <= math.sqrt(max(0.0, 1.0 - overlap**2)) + slack
    watch.done(2, "1-F <= TV <= sqrt(1-F^2) on 1000 random Poisson pairs")


def test_03_capacity_bound_endpoints():
    watch = Stopwatch(1.0)
    assert di_capacity_bounds(0.0) == (0.25, 0.5)
    assert di_capacity_bounds(0.5) == (0.125, 0.75)
    watch.done(3, "capacity interval endpoints exact at kappa 0 and 0.5")


def test_04_finite_n_converse_trend():
    watch = Stopwatch(1.0)
    kappa = 0.25
    params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.1)
    power = PowerConstraints(peak=1.0, average=1.0)
    values = [
        converse_log_count(n, kappa, params, power, 0.1, 0.1).normalized
        for n in (64, 256, 1024, 4096, 16384)
    ]
    target = (1 + kappa) / 2
    assert all(a > b > target for a, b in zip(values, values[1:]))
    assert values[-1] - target < 0.15
    watch.done(4, f"normalized converse {values[0]:.3f} -> {values[-1]:.3f}, "
                  f"approaching {target}")


def test_05_codebook_structural_suite():
    watch = Stopwatch(120.0)
    power = PowerConstraints(peak=10.0, average=10.0)
    for n in (16, 32, 64):
        book = construct_codebook(n, FIG2_DARK, power, 0.1, 0.1, max_codewords=16, seed=500 + n)
        validate_codebook(book)  # power constraints + pairwise 2r separation
        ball = power_ball_radius(n, FIG2_DARK, power, FIG2_DARK.memory)
        energies = (book.sqrt_codewords**2).sum(axis=1)
        assert np.all(energies <= ball**2 + 1e-9)
        assert math.log2(book.num_codewords) <= packing_log_count_bound(n, ball,
                                                                        book.packing_radius)
    watch.done(5, "power, separation, ball containment and count bound at n=16/32/64")


def test_06_di_monte_carlo_budgets():
    watch = Stopwatch(300.0)
    n, seed = 32, 7
    assert memory_scaling(n, 0.25) == FIG2_DARK.memory == 2
    power = PowerConstraints(peak=10.0, average=10.0)
    book = construct_codebook(n, FIG2_DARK, power, 0.1, 0.1, max_codewords=16, seed=seed)
    # calibrate to half the budget so the independent verification run can
    # confirm the full budget at Wilson confidence
    calibrate_threshold(book, 10_000, seed, target=0.05)
    result = estimate_errors(book, 10_000, seed)
    max_type1 = max(e.ci_high for e in result.type1.values())
    max_type2 = max(e.ci_high for e in result.type2.values())
    assert max_type1 <= 0.1
    assert max_type2 <= 0.1
    watch.done(6, f"DI errors at n=32: Wilson upper bounds {max_type1:.3f} (I) "
                  f"and {max_type2:.3f} (II), both within 0.1")


def test_07_dif_end_to_end():
    watch = Stopwatch(600.0)
    seed, trials, hash_range = 2026, 10_000, 64
    power = PowerConstraints(peak=5.0, average=5.0)
    code = build_dif_code(900, FIG2_DARK, power, num_messages=128, hash_range=hash_range,
                          eps=0.2, seed=seed)
    assert code.inner.shape == (hash_range, 30)
    assert code.pilot.size // (FIG2_DARK.memory + 1) == 300
    inner = estimate_inner_error(code, trials, seed)
    result = estimate_dif_errors(code, [(0, 1)], trials, seed)
    type1 = result.type1[0].estimate
    type2 = result.type2[(0, 1)].estimate
    assert type1 <= 0.05  # includes atypicality rejections
    predicted = 1.0 / hash_range + inner.estimate
    sigma = math.sqrt(predicted * (1 - predicted) / trials)
    assert abs(type2 - predicted) <= 2 * sigma
    watch.done(7, f"DIF at n=900: Type I {type1:.4f} <= 0.05, Type II {type2:.4f} "
                  f"within 2 sigma of 1/M + inner error {predicted:.4f}")


def test_08_hash_uniformity_and_collisions():
    watch = Stopwatch(60.0)
    draws_count, hash_range = 100_000, 64
    family = HashFamily(master_seed=808, num_messages=1000, hash_range=hash_range)
    laws = np.array([3.1, 1.6, 0.6])
    rng = np.random.default_rng(808)
    draws = np.empty(draws_count, dtype=np.int64)
    collisions = 0
    for t in range(draws_count):
        blocks = rng.poisson(laws, size=(32, 3))
        draws[t] = hash_message(0, blocks, family)
        if hash_message(1, blocks, family) == hash_message(2, blocks, family):
            collisions += 1
    counts = np.bincount(draws, minlength=hash_range + 1)[1:]
    _, p_value = chisquare(counts)
    assert p_value > 0.01
    rate = collisions / draws_count
    sigma = math.sqrt((1 / hash_range) * (1 - 1 / hash_range) / draws_count)
    assert abs(rate - 1 / hash_range) <= 3 * sigma
    watch.done(8, f"hash uniformity chi2 p={p_value:.3f}, collision rate {rate:.5f} "
                  f"within 3 sigma of 1/{hash_range}")


def test_09_entropy_asymptotics():
    watch = Stopwatch(10.0)
    assert abs(poisson_entropy_exact(10.0) - poisson_entropy_approx(10.0)) < 0.01
    assert abs(poisson_entropy_exact(100.0) - poisson_entropy_approx(100.0)) < 0.0005
    memoryless = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.1)
    gaps = []
    for scale in (5.0, 10.0, 20.0, 40.0, 80.0):
        exact, asym = dif_capacity_lower(memoryless, peak=scale)
        gaps.append(abs(exact - asym))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    watch.done(9, f"entropy expansion errors within tolerance; rate-floor gap "
                  f"{gaps[0]:.4f} -> {gaps[-1]:.4f} shrinking")


def test_10_collision_union_bound():
    watch = Stopwatch(1.0)
    # type2 * log2(M) = 2 leaves a 2^log_size margin: N up to 2^(2^10) works
    assert collision_bound_check(2 ** (2**10), 2**20, 0.1, 10.0)
    # without margin (type2 * log2(M) <= 1) any N >= 2 fails
    assert not collision_bound_check(2, 4, 0.5, 10.0)
    assert not collision_bound_check(2**100, 2**10, 0.1, 30.0)
    watch.done(10, "hash-collision union bound feasibility matches the margin rule")
