import math
import re

import numpy as np
import pytest

from dipc import (
    FiniteDistribution,
    bhattacharyya,
    l1_distance,
    min_distance_radius,
    poisson_bhattacharyya_sq,
    poisson_entropy_approx,
    poisson_entropy_exact,
    poisson_pmf_truncated,
    tv_distance,
)
from dipc.measures import MAX_MEAN, _log_factorial

# 50-digit oracle values (direct arbitrary-precision summation / arithmetic).
ENTROPY_POIS_1_BITS = 1.8824894320455294
RADIUS_01_01 = 0.50538382629739482
RADIUS_0_05 = 0.26818001065132582
L1_POIS_1_4 = 1.3631905947501229


def pois_pmf(mu, y):
    """Independent pmf oracle via lgamma."""
    if mu == 0:
        return 1.0 if y == 0 else 0.0
    return math.exp(-mu + y * math.log(mu) - math.lgamma(y + 1))


def scipy_pmf_truncated(mu, tail_mass):
    """(support, masses, tail bound) of Poisson(mu) as computed with
    scipy.special: the quantile ``pdtrik`` finds, stepped with ``pdtrc`` to
    the smallest y_max with P(Y > y_max) <= tail_mass, and xlogy/gammaln
    masses."""
    from scipy.special import gammaln, pdtrc, pdtrik, xlogy

    if mu == 0:
        return np.array([0]), np.array([1.0]), 0.0
    y_max = math.ceil(pdtrik(1.0 - max(tail_mass, 1e-12), mu))
    while pdtrc(y_max, mu) > tail_mass:
        y_max += 1
    while y_max > 0 and pdtrc(y_max - 1, mu) <= tail_mass:
        y_max -= 1
    support = np.arange(y_max + 1)
    mass = np.clip(np.exp(xlogy(support, mu) - gammaln(support + 1) - mu), 0, 1)
    return support, mass, max(0.0, 1.0 - mass.sum())


ORACLE_MEANS = sorted({0.0, 6.1, MAX_MEAN, *np.geomspace(1e-6, MAX_MEAN, 23).tolist(),
                       *np.linspace(0.1, 30.0, 24).tolist()})


def test_log_factorial_is_scipy_gammaln():
    from scipy.special import gammaln

    k = np.concatenate([np.arange(200_000), np.arange(10**8 - 1000, 10**8 + 1000)])
    assert np.array_equal(_log_factorial(k), gammaln(k + 1.0))


class TestTruncatedPmf:
    @pytest.mark.parametrize("tail", [1e-300, 1e-100, 1e-30, 1e-12, 1e-6, 1e-3, 0.3, 0.999])
    def test_bit_for_bit_the_scipy_computation(self, tail):
        for mu in ORACLE_MEANS:
            support, mass, tail_bound = scipy_pmf_truncated(mu, tail)
            d = poisson_pmf_truncated(mu, tail)
            assert np.array_equal(d.support, support), mu
            assert np.array_equal(d.mass, mass), mu
            assert d.tail_bound == tail_bound, mu


    # NaN ended in "cannot convert float NaN to integer".
    @pytest.mark.parametrize("mu", [math.nan, -1.0, -math.inf])
    def test_mean_must_be_nonnegative(self, mu):
        with pytest.raises(ValueError, match="^Poisson mean must be nonnegative$"):
            poisson_pmf_truncated(mu)
        with pytest.raises(ValueError, match="^Poisson mean must be nonnegative$"):
            poisson_entropy_exact(mu)

    @pytest.mark.parametrize("mu", [math.nan, 0.0, -1.0])
    def test_approximation_needs_a_positive_mean(self, mu):
        with pytest.raises(ValueError, match="requires a positive mean"):
            poisson_entropy_approx(mu)

    def test_zero_mean_is_point_mass(self):
        d = poisson_pmf_truncated(0.0)
        assert d.support.tolist() == [0]
        assert d.mass.tolist() == [1.0]
        assert d.tail_bound == 0.0

    def test_cutoff_matches_cumulative_sum_oracle(self):
        mu, tail = 1.0, 1e-12
        d = poisson_pmf_truncated(mu, tail)
        # smallest y_max with CDF >= 1 - tail, by explicit summation
        acc, y = 0.0, 0
        while acc < 1 - tail:
            acc += pois_pmf(mu, y)
            y += 1
        assert d.support[-1] == y - 1
        assert d.tail_bound <= tail

    def test_mass_nearly_complete(self):
        d = poisson_pmf_truncated(20.0)
        assert 1 - 1e-12 <= d.mass.sum() <= 1 + 1e-12

    def test_deep_tails_supported(self):
        d = poisson_pmf_truncated(5.0, 1e-20)
        from scipy.stats import poisson

        assert poisson.sf(int(d.support[-1]), 5.0) <= 1e-20
        assert poisson.sf(int(d.support[-1]) - 1, 5.0) > 1e-20

    @pytest.mark.parametrize("tail", [0.4, 1e-3, 1e-12, 1e-30, 1e-300])
    def test_matches_scipy_stats_poisson(self, tail):
        from scipy.stats import poisson

        for mu in np.geomspace(1e-6, 1e5, 45):
            d = poisson_pmf_truncated(mu, tail)
            y_max = int(d.support[-1])
            assert poisson.sf(y_max, mu) <= tail
            assert y_max == 0 or poisson.sf(y_max - 1, mu) > tail
            mass = poisson.pmf(np.arange(y_max + 1), mu)
            assert np.array_equal(d.mass, mass)
            assert d.tail_bound == max(0.0, 1.0 - mass.sum())

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            poisson_pmf_truncated(-1.0)
        with pytest.raises(ValueError):
            poisson_pmf_truncated(1.0, 0.0)

    @pytest.mark.parametrize("mu", [math.nextafter(MAX_MEAN, math.inf), 6.76e5,
                                    np.float64(2e5)])
    def test_means_above_the_cap_rejected(self, mu):
        # at 6.76e5 the summed masses miss 1 by more than 1e-9; a numpy mean
        # is shown as a plain float, not as np.float64(...)
        assert MAX_MEAN == 1e5
        message = f"^Poisson mean {re.escape(str(float(mu)))} exceeds MAX_MEAN=100000$"
        with pytest.raises(ValueError, match=message):
            poisson_pmf_truncated(mu)
        with pytest.raises(ValueError, match=message):
            poisson_entropy_exact(mu)


class TestFiniteDistribution:
    def test_mass_must_account_for_everything(self):
        with pytest.raises(ValueError, match=r"^total mass 0\.9 not within 1e-9 of 1$"):
            FiniteDistribution(np.array([0, 1]), np.array([0.5, 0.4]))

    def test_support_must_increase(self):
        with pytest.raises(ValueError):
            FiniteDistribution(np.array([1, 0]), np.array([0.5, 0.5]))


class TestL1AndTV:
    def test_identical_distributions(self):
        d = poisson_pmf_truncated(3.0)
        assert l1_distance(d, d) == 0.0
        assert tv_distance(d, d) == 0.0

    def test_disjoint_supports(self):
        a = FiniteDistribution(np.array([0]), np.array([1.0]))
        b = FiniteDistribution(np.array([5]), np.array([1.0]))
        assert l1_distance(a, b) == pytest.approx(2.0)
        assert tv_distance(a, b) == pytest.approx(1.0)

    def test_poisson_pair_against_elementwise_oracle(self):
        q1 = poisson_pmf_truncated(1.0)
        q2 = poisson_pmf_truncated(4.0)
        oracle = sum(abs(pois_pmf(1.0, y) - pois_pmf(4.0, y)) for y in range(80))
        assert l1_distance(q1, q2) == pytest.approx(oracle, abs=1e-10)
        assert l1_distance(q1, q2) == pytest.approx(L1_POIS_1_4, abs=1e-10)

    def test_tv_is_exactly_half_l1(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mu1, mu2 = rng.uniform(0, 30, size=2)
            q1, q2 = poisson_pmf_truncated(mu1), poisson_pmf_truncated(mu2)
            assert tv_distance(q1, q2) == l1_distance(q1, q2) / 2.0


class TestBhattacharyya:
    def test_identical_distributions_overlap_one(self):
        d = poisson_pmf_truncated(7.0)
        assert bhattacharyya(d, d) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_supports_overlap_zero(self):
        a = FiniteDistribution(np.array([0]), np.array([1.0]))
        b = FiniteDistribution(np.array([5]), np.array([1.0]))
        assert bhattacharyya(a, b) == 0.0

    def test_poisson_pair_matches_closed_form(self):
        q1 = poisson_pmf_truncated(4.0, 1e-20)
        q2 = poisson_pmf_truncated(1.0, 1e-20)
        assert bhattacharyya(q1, q2) == pytest.approx(math.exp(-0.5), abs=1e-9)

    def test_closed_form_values(self):
        assert poisson_bhattacharyya_sq(3.0, 3.0) == 1.0
        assert poisson_bhattacharyya_sq(4.0, 1.0) == pytest.approx(
            0.36787944117144233, abs=1e-15
        )
        assert poisson_bhattacharyya_sq(0.0, 1.0) == pytest.approx(math.exp(-1.0))

    @pytest.mark.parametrize("means", [(math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf),
                                       (math.inf, 1.0), (0.0, -math.inf), (-1.0, 1.0)])
    def test_closed_form_rejects_means_outside_the_laws(self, means):
        with pytest.raises(ValueError, match="means must be nonnegative and finite"):
            poisson_bhattacharyya_sq(*means)

    def test_closed_form_agrees_with_truncated_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu1, mu2 = rng.uniform(0, 50, size=2)
            q1 = poisson_pmf_truncated(mu1, 1e-20)
            q2 = poisson_pmf_truncated(mu2, 1e-20)
            assert bhattacharyya(q1, q2) ** 2 == pytest.approx(
                poisson_bhattacharyya_sq(mu1, mu2), abs=1e-9
            )

    def test_sandwich_between_overlap_and_tv(self):
        # 1 - F <= TV <= sqrt(1 - F^2), up to truncation slack.
        rng = np.random.default_rng(12)
        for _ in range(200):
            mu1, mu2 = rng.uniform(0, 50, size=2)
            q1, q2 = poisson_pmf_truncated(mu1), poisson_pmf_truncated(mu2)
            overlap = bhattacharyya(q1, q2)
            tv = tv_distance(q1, q2)
            assert 1 - overlap <= tv + 1e-6
            assert tv <= math.sqrt(max(0.0, 1 - overlap**2)) + 1e-6


class TestMinDistanceRadius:
    def test_symmetric_budget_value(self):
        r = min_distance_radius(0.1, 0.1)
        assert r == pytest.approx(RADIUS_01_01, abs=1e-12)
        assert (2 * r) ** 2 == pytest.approx(-math.log(1 - 0.8**2), abs=1e-12)

    def test_asymmetric_budget_value(self):
        assert min_distance_radius(0.0, 0.5) == pytest.approx(RADIUS_0_05, abs=1e-12)

    def test_radius_vanishes_as_budget_fills(self):
        assert min_distance_radius(0.49999, 0.5) < 1e-2

    def test_budget_of_one_or_more_rejected(self):
        with pytest.raises(ValueError):
            min_distance_radius(0.5, 0.5)
        with pytest.raises(ValueError):
            min_distance_radius(0.7, 0.4)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            min_distance_radius(0.0, 0.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            min_distance_radius(-0.1, 0.2)

    @pytest.mark.parametrize("budgets", [(math.nan, 0.1), (0.1, math.nan), (math.nan, math.nan)])
    def test_nan_budget_rejected(self, budgets):
        with pytest.raises(ValueError, match="error budgets must be nonnegative"):
            min_distance_radius(*budgets)

    def test_tiny_budget_clamped_to_finite_radius(self):
        r = min_distance_radius(1e-18, 1e-18)
        assert math.isfinite(r) and r > 0


class TestPoissonEntropy:
    def test_degenerate_zero_mean(self):
        assert poisson_entropy_exact(0.0) == 0.0

    def test_unit_mean_golden_value(self):
        assert poisson_entropy_exact(1.0) == pytest.approx(ENTROPY_POIS_1_BITS, abs=1e-9)

    def test_monotone_in_mean(self):
        grid = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
        values = [poisson_entropy_exact(mu) for mu in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_approximation_error_small_and_shrinking(self):
        assert abs(poisson_entropy_exact(10.0) - poisson_entropy_approx(10.0)) < 0.01
        assert abs(poisson_entropy_exact(100.0) - poisson_entropy_approx(100.0)) < 0.0005

    def test_error_decays_at_least_quadratically(self):
        errs = [
            abs(poisson_entropy_exact(mu) - poisson_entropy_approx(mu))
            for mu in (10.0, 20.0, 40.0, 80.0)
        ]
        for a, b in zip(errs, errs[1:]):
            assert b < a * 0.3

    def test_quadrupling_mean_adds_one_bit_asymptotically(self):
        mu = 1e6
        gain = poisson_entropy_approx(4 * mu) - poisson_entropy_approx(mu)
        assert gain == pytest.approx(1.0, abs=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            poisson_entropy_exact(-1.0)

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    @pytest.mark.parametrize("tail_mass", [0.0, 5.0, math.nan])
    def test_tail_mass_checked_at_every_mean(self, mu, tail_mass):
        with pytest.raises(ValueError, match="tail_mass must lie in"):
            poisson_entropy_exact(mu, tail_mass=tail_mass)
        with pytest.raises(ValueError):
            poisson_entropy_approx(0.0)
