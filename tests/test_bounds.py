import math

import pytest

from dipc import (
    BoundReport,
    ChannelParams,
    PowerConstraints,
    bound_report,
    converse_log_count,
    di_capacity_bounds,
    dif_capacity_lower,
    min_distance_radius,
    poisson_entropy_exact,
    power_ball_radius,
)

FIG2 = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0, dark_rate=0.1)


class TestDICapacityBounds:
    def test_endpoints(self):
        assert di_capacity_bounds(0.0) == (0.25, 0.5)
        assert di_capacity_bounds(0.5) == (0.125, 0.75)
        assert di_capacity_bounds(0.2) == (pytest.approx(0.2), pytest.approx(0.6))

    def test_affine_slopes(self):
        lo1, hi1 = di_capacity_bounds(0.1)
        lo2, hi2 = di_capacity_bounds(0.3)
        assert (lo2 - lo1) / 0.2 == pytest.approx(-0.25)
        assert (hi2 - hi1) / 0.2 == pytest.approx(0.5)

    def test_ordering_on_grid(self):
        for k in [i / 20 for i in range(20)]:
            lo, hi = di_capacity_bounds(k)
            assert lo <= hi

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            di_capacity_bounds(1.0)
        with pytest.raises(ValueError):
            di_capacity_bounds(-0.01)


class TestDIFCapacityLower:
    def test_memoryless_single_term(self):
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.1)
        exact, _ = dif_capacity_lower(params, peak=5.0)
        assert exact == pytest.approx(poisson_entropy_exact(5.1))

    def test_asymptotic_arithmetic(self):
        _, asym = dif_capacity_lower(FIG2, peak=5.0)
        assert asym == pytest.approx(0.5 * math.log2(2 * math.pi * math.e * 5.0))

    def test_average_over_positions(self):
        exact, _ = dif_capacity_lower(FIG2, peak=5.0)
        expected = (
            poisson_entropy_exact(3.1)
            + poisson_entropy_exact(1.6)
            + poisson_entropy_exact(0.6)
        ) / 3.0
        assert exact == pytest.approx(expected, abs=1e-12)

    def test_zero_intensity_rejected(self):
        with pytest.raises(ValueError):
            dif_capacity_lower(FIG2, peak=0.0)

    @pytest.mark.parametrize("peak", [0.0, -1.0, math.nan])
    def test_nonpositive_peak_named(self, peak):
        message = rf"^peak must be a number in \(0, inf\), got {peak!r}$"
        with pytest.raises(ValueError, match=message):
            dif_capacity_lower(FIG2, peak=peak)

    def test_gap_shrinks_with_intensity(self):
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.1)
        gaps = []
        for scale in (5.0, 10.0, 20.0, 40.0, 80.0):
            exact, asym = dif_capacity_lower(params, peak=scale)
            gaps.append(abs(exact - asym))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestConverse:
    PARAMS = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.1)
    POWER = PowerConstraints(peak=1.0, average=1.0)

    def test_normalized_trend_toward_asymptote(self):
        kappa = 0.25
        target = (1 + kappa) / 2
        values = [
            converse_log_count(n, kappa, self.PARAMS, self.POWER, 0.1, 0.1).normalized
            for n in (64, 256, 1024, 4096, 16384)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > target for v in values)
        assert values[-1] - target < 0.15

    def test_monotone_in_packing_radius(self):
        # a larger budget sum means a smaller radius and a larger count
        loose = converse_log_count(256, 0.2, self.PARAMS, self.POWER, 0.05, 0.05)
        tight = converse_log_count(256, 0.2, self.PARAMS, self.POWER, 0.3, 0.3)
        assert min_distance_radius(0.3, 0.3) < min_distance_radius(0.05, 0.05)
        assert tight.normalized > loose.normalized

    def test_monotone_in_ball_radius(self):
        wide = PowerConstraints(peak=4.0, average=4.0)
        small = converse_log_count(256, 0.2, self.PARAMS, self.POWER, 0.1, 0.1)
        large = converse_log_count(256, 0.2, self.PARAMS, wide, 0.1, 0.1)
        assert power_ball_radius(256, self.PARAMS, wide, large.memory) > \
            power_ball_radius(256, self.PARAMS, self.POWER, small.memory)
        assert large.normalized > small.normalized

    def test_memoryless_algebraic_form(self):
        # dark 0, unit rate, kappa 0: bits = n * (1 + log2 sqrt(n) - log2 r)
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.0)
        n = 1024
        cb = converse_log_count(n, 0.0, params, self.POWER, 0.1, 0.1)
        expected = n * (1 + 0.5 * math.log2(n) - math.log2(min_distance_radius(0.1, 0.1)))
        assert cb.bits == pytest.approx(expected, rel=1e-12)

    def test_slack_is_excess_over_asymptote(self):
        cb = converse_log_count(512, 0.25, self.PARAMS, self.POWER, 0.1, 0.1)
        assert cb.slack_bits == pytest.approx(
            cb.bits - 0.625 * 512 * math.log2(512), abs=1e-9
        )


class TestBoundReport:
    def test_report_collects_everything(self):
        report = bound_report(0.0, FIG2, peak=5.0)
        assert (report.di_lower, report.di_upper) == (0.25, 0.5)
        exact, asym = dif_capacity_lower(FIG2, peak=5.0)
        assert report.dif_lower_exact == exact
        assert report.dif_lower_asymptotic == asym

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoundReport(kappa=0.0, di_lower=1.0, di_upper=0.5,
                        dif_lower_exact=1.0, dif_lower_asymptotic=1.0)
