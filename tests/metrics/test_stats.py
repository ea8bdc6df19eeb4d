"""Statistics: percentiles, CIs, summaries."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.stats import (
    Summary,
    confidence_interval_95,
    mean,
    percentile,
    stddev,
    t_critical_95,
    variance,
)


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_variance_known(self):
        assert variance([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == pytest.approx(
            4.571428, rel=1e-5
        )

    def test_variance_single_value_zero(self):
        assert variance([5.0]) == 0.0

    def test_stddev_is_sqrt_variance(self):
        data = [1.0, 3.0, 5.0]
        assert stddev(data) == pytest.approx(math.sqrt(variance(data)))


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2.0

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_p0_is_min_p100_is_max(self):
        data = [5.0, 1.0, 9.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_out_of_range_p_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_matches_numpy_linear_method(self):
        import numpy as np

        data = [12.0, 5.0, 9.0, 1.0, 30.0, 2.0, 18.0]
        for p in (5, 25, 50, 75, 95, 99):
            assert percentile(data, p) == pytest.approx(
                float(np.percentile(data, p))
            )

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_percentile_bounded_and_monotone(self, data):
        p50 = percentile(data, 50)
        p95 = percentile(data, 95)
        p99 = percentile(data, 99)
        assert min(data) <= p50 <= p95 <= p99 <= max(data)


class TestPercentileEdgeCases:
    def test_n2_p0_and_p100_hit_endpoints(self):
        assert percentile([7.0, 3.0], 0) == 3.0
        assert percentile([7.0, 3.0], 100) == 7.0

    def test_n2_interpolates_between_the_two(self):
        # rank = (p/100) * (n-1) with n=2 is just p/100.
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)
        assert percentile([0.0, 10.0], 50) == pytest.approx(5.0)
        assert percentile([0.0, 10.0], 99) == pytest.approx(9.9)

    def test_p0_p100_exact_even_with_float_noise(self):
        # p=0 / p=100 must return the exact min/max, not an
        # interpolated neighbour.
        data = [0.1 + 0.1 * i for i in range(11)]
        assert percentile(data, 0) == min(data)
        assert percentile(data, 100) == max(data)


class TestConfidenceInterval:
    def test_single_value_zero_width(self):
        ci = confidence_interval_95([5.0])
        assert ci.mean == 5.0
        assert ci.half_width == 0.0

    def test_identical_values_zero_width(self):
        ci = confidence_interval_95([3.0] * 10)
        assert ci.half_width == 0.0

    def test_known_case(self):
        # n=10, std=1 -> half width = 2.262 / sqrt(10)
        data = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        ci = confidence_interval_95(data)
        expected = 2.262 * stddev(data) / math.sqrt(10)
        assert ci.half_width == pytest.approx(expected, rel=1e-3)

    def test_bounds(self):
        ci = confidence_interval_95([1.0, 2.0, 3.0])
        assert ci.low == ci.mean - ci.half_width
        assert ci.high == ci.mean + ci.half_width

    def test_t_critical_table_values(self):
        assert t_critical_95(9) == pytest.approx(2.262)
        assert t_critical_95(1) == pytest.approx(12.706)

    def test_t_critical_interpolates(self):
        value = t_critical_95(22)
        assert t_critical_95(25) < value < t_critical_95(20)

    def test_t_critical_df22_linear_between_20_and_25(self):
        # The table jumps from df=20 to df=25; df=22 sits 2/5 along.
        expected = 2.086 + (22 - 20) / (25 - 20) * (2.060 - 2.086)
        assert t_critical_95(22) == pytest.approx(expected)

    def test_t_critical_large_df_is_z(self):
        assert t_critical_95(10_000) == pytest.approx(1.96)

    def test_t_critical_bad_df(self):
        with pytest.raises(ValueError):
            t_critical_95(0)


class TestSummary:
    def test_summary_fields(self):
        summary = Summary.of([1.0, 2.0, 3.0, 4.0])
        assert summary.n == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == 2.5

    def test_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            Summary.of([])

    def test_summary_accepts_generators(self):
        summary = Summary.of(float(x) for x in range(10))
        assert summary.n == 10
