"""Unit tests for statistics helpers."""

import math

import numpy as np
import pytest

from repro.sim.stats import (
    confidence_interval,
    crossover_index,
    downsample,
    moving_average,
    summarize,
)


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.p50 == pytest.approx(2.5)

    def test_empty(self):
        s = summarize([])
        assert s.n == 0
        assert math.isnan(s.mean)

    def test_as_dict_keys(self):
        assert set(summarize([1.0]).as_dict()) == {
            "n", "mean", "std", "min", "max", "p50", "p95", "p99",
        }


class TestDownsample:
    def test_shorter_than_points_returned_whole(self):
        out = downsample([1, 2, 3], 10)
        assert list(out) == [1, 2, 3]

    def test_includes_endpoints(self):
        out = downsample(list(range(100)), 5)
        assert out[0] == 0
        assert out[-1] == 99

    def test_size_bounded(self):
        assert downsample(list(range(1000)), 7).size <= 7

    def test_invalid_points(self):
        with pytest.raises(ValueError):
            downsample([1], 0)


class TestMovingAverage:
    def test_window_one_is_identity(self):
        data = [3.0, 1.0, 4.0]
        assert list(moving_average(data, 1)) == data

    def test_matches_naive(self):
        data = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        out = moving_average(data, 3)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(1.5)
        assert out[4] == pytest.approx(4.0)

    def test_empty(self):
        assert moving_average([], 3).size == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)


class TestConfidenceInterval:
    def test_singleton_degenerate(self):
        lo, hi = confidence_interval([5.0])
        assert lo == hi == 5.0

    def test_contains_mean(self):
        data = np.random.default_rng(0).normal(10, 1, 100)
        lo, hi = confidence_interval(data)
        assert lo < data.mean() < hi

    def test_empty_nan(self):
        lo, hi = confidence_interval([])
        assert math.isnan(lo) and math.isnan(hi)


class TestCrossoverIndex:
    def test_finds_first_crossing(self):
        a = [3.0, 2.0, 1.0, 0.5]
        b = [1.0, 1.0, 1.0, 1.0]
        assert crossover_index(a, b) == 2

    def test_none_when_never_crossing(self):
        assert crossover_index([2.0, 2.0], [1.0, 1.0]) is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            crossover_index([1.0], [1.0, 2.0])
