import dataclasses
import math
import re

import numpy as np
import pytest

from dipc import serialize
from dipc import (
    ChannelParams,
    PowerConstraints,
    construct_codebook,
    effective_intensity,
    log_likelihood,
    sample_output,
    validate_power,
)

FIG2 = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=1.0, dark_rate=0.0)
MEMORYLESS = ChannelParams(memory=0, hit_probs=[1.0], slot_duration=1.0, dark_rate=0.0)


class TestChannelParams:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ChannelParams(memory=1, hit_probs=[0.6, 0.3])

    def test_probabilities_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            ChannelParams(memory=1, hit_probs=[1.2, -0.2])

    def test_length_must_match_memory(self):
        with pytest.raises(ValueError):
            ChannelParams(memory=2, hit_probs=[0.5, 0.5])

    def test_positive_slot_and_nonnegative_dark(self):
        with pytest.raises(ValueError):
            ChannelParams(memory=0, hit_probs=[1.0], slot_duration=0.0)
        with pytest.raises(ValueError):
            ChannelParams(memory=0, hit_probs=[1.0], dark_rate=-0.1)

    # 1.0 and True built and packed, then failed in calibrate_threshold
    @pytest.mark.parametrize("memory", [1.0, True, -1], ids=["float", "bool", "negative"])
    def test_memory_must_be_a_nonnegative_integer(self, memory):
        with pytest.raises(ValueError, match=r"^memory must be an integer >= 0, got "):
            ChannelParams(memory=memory, hit_probs=[0.5, 0.5])

    def test_numpy_memory_is_stored_as_an_int(self, tmp_path):
        # an np.int64 memory built, and save_codebook then failed on it
        params = ChannelParams(memory=np.int64(1), hit_probs=[0.5, 0.5], dark_rate=0.1)
        assert type(params.memory) is int
        book = construct_codebook(6, params, PowerConstraints(peak=10.0, average=10.0), 0.1, 0.1,
                                  max_codewords=3, seed=5)
        serialize.save_codebook(book, tmp_path / "book.json")
        loaded = serialize.load_codebook(tmp_path / "book.json")
        assert loaded.params.memory == 1 and np.array_equal(loaded.codewords, book.codewords)

    # the generated __eq__ compared hit_probs arrays with ==, and the ndarray
    # field made the frozen class unhashable
    def test_equality_and_hash_by_value(self):
        params = ChannelParams(2, [0.6, 0.3, 0.1])
        same = ChannelParams(2, np.array([0.6, 0.3, 0.1]))
        assert params == same and hash(params) == hash(same)
        assert params in [same] and {params: 1}[same] == 1
        assert params == ChannelParams(np.int64(2), (0.6, 0.3, 0.1), slot_duration=1)
        for other in (ChannelParams(2, [0.5, 0.4, 0.1]), ChannelParams(1, [0.7, 0.3]),
                      ChannelParams(2, [0.6, 0.3, 0.1], slot_duration=2.0),
                      ChannelParams(2, [0.6, 0.3, 0.1], dark_rate=0.1)):
            assert params != other and other not in {params: 1}
        assert params != (2, (0.6, 0.3, 0.1), 1.0, 0.0)

    def test_hit_probs_are_a_read_only_copy(self):
        # the caller's array was stored: rewriting it after validation gave
        # negative Poisson means
        arr = np.array([0.6, 0.3, 0.1])
        params = ChannelParams(memory=2, hit_probs=arr)
        arr[:] = [-5, 5, 1]
        assert params.hit_probs.tolist() == [0.6, 0.3, 0.1]
        assert effective_intensity([1, 0, 0], params).tolist() == [0.6, 0.3, 0.1, 0.0, 0.0]
        with pytest.raises(ValueError, match="read-only"):
            params.hit_probs[0] = -5.0

    def test_asdict_unchanged(self):
        params = ChannelParams(1, [0.5, 0.5], dark_rate=0.1)
        data = dataclasses.asdict(params)
        assert list(data) == ["memory", "hit_probs", "slot_duration", "dark_rate"]
        assert type(data["hit_probs"]) is np.ndarray and data["hit_probs"].tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("v", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field, message", [
        ("hit_probs", "hit probabilities must lie in"),
        ("slot_duration", "slot_duration must be a number in (0, inf), got "),
        ("dark_rate", "dark_rate must be a number in [0, inf), got "),
        ("peak", "peak must be a number in (0, inf), got "),
        ("average", "average must be a number in (0, inf), got "),
    ])
    def test_nan_and_infinity_rejected(self, field, message, v):
        """A NaN or infinite field would give NaN means or fail in numpy's
        Poisson sampler long after the link was built."""
        with pytest.raises(ValueError, match=re.escape(message)):
            if field in ("peak", "average"):
                PowerConstraints(**{"peak": 1.0, "average": 1.0, field: v})
            elif field == "hit_probs":
                ChannelParams(memory=1, hit_probs=[v, 0.5])
            else:
                ChannelParams(memory=0, hit_probs=[1.0], **{field: v})


# Edge values of a float field; -0.0 compares equal to 0.
GRID = [0, -0.0, -1, 5e-324, 1e308, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("v", GRID, ids=repr)
@pytest.mark.parametrize("field", ["hit_probs", "slot_duration", "dark_rate", "peak", "average"])
def test_constructors_accept_what_the_link_tables_accept(field, v):
    if field in ("peak", "average"):
        table, build, d = serialize._POWER, PowerConstraints, {"peak": 1.0, "average": 1.0}
    else:
        table, build, d = serialize._CHANNEL, ChannelParams, {"memory": 1, "hit_probs": [0.5, 0.5]}
    d[field] = [v, 1 - v] if field == "hit_probs" else v
    try:
        build(**d)
    except ValueError:
        assert serialize._problems(table, d)
    else:
        assert not serialize._problems(table, d)


class TestEffectiveIntensity:
    def test_single_burst_spreads_over_memory(self):
        mu = effective_intensity([10.0, 0.0, 0.0], FIG2)
        np.testing.assert_allclose(mu, [6.0, 3.0, 1.0, 0.0, 0.0])

    def test_zero_input_gives_dark_rate(self):
        params = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], dark_rate=0.7)
        mu = effective_intensity(np.zeros(5), params)
        np.testing.assert_allclose(mu, 0.7)
        assert mu.size == 7

    def test_memoryless_identity(self):
        mu = effective_intensity([3.0, 3.0, 3.0], MEMORYLESS)
        np.testing.assert_allclose(mu, 3.0)

    def test_linearity_up_to_dark_rate(self):
        params = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], dark_rate=0.4)
        rng = np.random.default_rng(10)
        x1 = rng.uniform(0, 5, size=9)
        x2 = rng.uniform(0, 5, size=9)
        a, b = 0.3, 1.7
        combined = effective_intensity(a * x1 + b * x2, params) - params.dark_rate
        parts = a * (effective_intensity(x1, params) - params.dark_rate) + b * (
            effective_intensity(x2, params) - params.dark_rate
        )
        np.testing.assert_allclose(combined, parts, atol=1e-12)

    def test_empty_codeword_rejected(self):
        with pytest.raises(ValueError):
            effective_intensity([], FIG2)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            effective_intensity([1.0, -1.0], FIG2)

    # NaN passed the sign test: the intensity came back [nan nan nan 0.2]; an
    # infinite rate gave NaN log likelihoods
    @pytest.mark.parametrize("x", [[math.nan, 1.0], [1.0, -0.5], [0.0, 2.0, math.nan],
                                   [math.inf, 0.0], [1.0, -math.inf]],
                             ids=["nan-first", "negative", "nan-last", "inf", "minus-inf"])
    def test_nan_or_negative_rate_rejected_by_every_reader(self, x):
        for call in (lambda: effective_intensity(x, FIG2),
                     lambda: log_likelihood(np.zeros(len(x) + 2), x, FIG2),
                     lambda: sample_output(x, FIG2, seed=0),
                     lambda: validate_power(x, PowerConstraints(peak=2.0, average=2.0))):
            with pytest.raises(ValueError, match="^release rates must be nonnegative and finite$"):
                call()

    def test_in_place_scaling_keeps_the_bytes(self):
        x = np.array([0.0, 10.0, 3.7, 1e-300, 5.0])
        params = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], slot_duration=0.7,
                               dark_rate=0.1)
        expected = np.convolve(x, params.hit_probs, mode="full") * 0.7 + 0.1
        assert effective_intensity(x, params).tobytes() == expected.tobytes()


def scipy_log_likelihood(y, x, params):
    """log_likelihood with ln y! from scipy.special.gammaln."""
    from scipy.special import gammaln

    y = np.asarray(y, dtype=float)
    mu = effective_intensity(x, params)
    ylogmu = np.where(y > 0, y * np.log(np.where(mu > 0, mu, 1.0)), 0.0)
    return float(np.sum(-mu + ylogmu - gammaln(y + 1)))


class TestLogLikelihood:
    @pytest.mark.parametrize("y", [
        [0, 1, 2, 3, 4, 5],
        [11, 12, 13, 14, 999, 1000],
        [0, 7, 123_456, 10**8, 10**8 + 1, 3 * 10**9],
        [2**40, 10**8 - 1, 1001, 20, 0, 2**53],
    ])
    def test_ln_factorial_is_scipy_gammaln(self, y):
        params = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], dark_rate=0.3)
        x = np.array([2.0, 50.0, 1e3, 1e8])
        assert log_likelihood(y, x, params) == scipy_log_likelihood(y, x, params)

    def test_all_zero_counts_sum_dark_rate(self):
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.1)
        ll = log_likelihood([0] * 10, [0.0] * 10, params)
        assert ll == pytest.approx(-1.0, abs=1e-12)

    def test_single_slot_closed_form(self):
        # -0.7 + 2 ln 0.7 - ln 2, frozen from a 50-digit evaluation
        params = ChannelParams(memory=0, hit_probs=[1.0], dark_rate=0.0)
        ll = log_likelihood([2], [0.7], params)
        assert ll == pytest.approx(-2.1064970684374100672, abs=1e-12)

    def test_normalizes_over_truncated_support(self):
        # Sum of exp(ll) over a product support with per-slot tail <= 1e-12.
        params = ChannelParams(memory=1, hit_probs=[0.7, 0.3], dark_rate=0.2)
        x = np.array([1.5, 0.4])
        mu = effective_intensity(x, params)
        from scipy.stats import poisson

        caps = [int(poisson.isf(1e-12, m)) if m > 0 else 0 for m in mu]
        total = 0.0
        for y0 in range(caps[0] + 1):
            for y1 in range(caps[1] + 1):
                for y2 in range(caps[2] + 1):
                    total += math.exp(log_likelihood([y0, y1, y2], x, params))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_impossible_outcome_is_minus_infinity(self):
        ll = log_likelihood([0, 0, 1, 0, 0], [10.0, 0.0, 0.0], FIG2)
        assert ll > -math.inf
        ll_impossible = log_likelihood([0, 0, 0, 1, 0], [10.0, 0.0, 0.0], FIG2)
        assert ll_impossible == -math.inf

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood([0, 0], [1.0, 1.0], FIG2)

    @pytest.mark.parametrize("y", [np.array([1e19, 3.0, 0.0]), [2**63, 1, 0]],
                             ids=["float-1e19", "int-2**63"])
    def test_counts_beyond_int64_rejected(self, y):
        # int64 would wrap them to negative counts
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            log_likelihood(y, [1.0], FIG2)

    @pytest.mark.parametrize("dtype", [bool, np.float16, np.uint64])
    def test_small_and_unsigned_count_types_accepted(self, dtype):
        assert log_likelihood(np.array([1, 0, 1], dtype=dtype), [1.0], FIG2) == \
            log_likelihood([1, 0, 1], [1.0], FIG2)

    def test_matches_independent_per_slot_product(self):
        # Independent oracle: per-slot pmf via lgamma, multiplied explicitly.
        params = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], dark_rate=0.3)
        x = np.array([2.0, 0.0, 5.0, 1.0])
        y = np.array([1, 0, 3, 2, 4, 0])
        mu = effective_intensity(x, params)
        expected = sum(
            -m + (k * math.log(m) if k else 0.0) - math.lgamma(k + 1)
            for m, k in zip(mu, y)
        )
        assert log_likelihood(y, x, params) == pytest.approx(expected, rel=1e-9)


class TestSampleOutput:
    def test_zero_intensity_is_all_zeros(self):
        y = sample_output(np.zeros(8), FIG2, seed=5)
        assert y.shape == (10,)
        assert np.all(y == 0)

    def test_deterministic_given_seed(self):
        x = np.full(20, 3.0)
        params = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], dark_rate=0.1)
        assert np.array_equal(sample_output(x, params, 99), sample_output(x, params, 99))
        assert not np.array_equal(sample_output(x, params, 99), sample_output(x, params, 100))

    def test_sample_mean_matches_intensity(self):
        # One long constant-intensity block: mean within 3 sigma.
        n = 100_000
        y = sample_output(np.full(n, 5.0), MEMORYLESS, seed=1234)
        assert y[:n].mean() == pytest.approx(5.0, abs=3 * math.sqrt(5.0 / n))

    def test_per_slot_means_converge(self):
        params = ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], dark_rate=0.1)
        x = np.array([10.0, 0.0, 4.0])
        mu = effective_intensity(x, params)
        trials = 20_000
        acc = np.zeros_like(mu)
        for t in range(trials):
            acc += sample_output(x, params, seed=t)
        means = acc / trials
        bands = 3 * np.sqrt(mu / trials)
        assert np.all(np.abs(means - mu) <= bands + 1e-9)


class TestValidatePower:
    def test_peak_everywhere_is_allowed_when_average_covers_it(self):
        c = PowerConstraints(peak=2.0, average=2.0)
        assert validate_power(np.full(6, 2.0), c)

    def test_single_peak_violation(self):
        c = PowerConstraints(peak=2.0, average=10.0)
        assert not validate_power([2.0 + 1e-6, 0.0, 0.0], c)

    def test_average_boundary(self):
        c = PowerConstraints(peak=2.0, average=1.0)
        assert validate_power([2.0, 2.0, 0.0, 0.0], c)
        assert not validate_power([2.0, 2.0, 1.0, 0.0], c)

    def test_constraints_must_be_positive(self):
        with pytest.raises(ValueError):
            PowerConstraints(peak=0.0, average=1.0)
