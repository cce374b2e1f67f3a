"""Unit tests for metric collectors."""

import math

import numpy as np
import pytest

from repro.sim.metrics import (
    MessageCounter,
    MSETracker,
    ResponseTimeTracker,
)


class TestMessageCounter:
    def test_count_accumulates(self):
        c = MessageCounter()
        c.count("a", 3)
        c.count("a")
        c.count("b", 2)
        assert c.total == 6
        assert c.by_category["a"] == 4
        assert c.by_category["b"] == 2

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            MessageCounter().count("a", -1)

    def test_snapshots_cumulative(self):
        c = MessageCounter()
        c.count("x", 5)
        c.snapshot()
        c.count("x", 2)
        c.snapshot()
        assert list(c.snapshots) == [5, 7]

    def test_per_transaction_diffs(self):
        c = MessageCounter()
        c.count("x", 5)
        c.snapshot()
        c.count("x", 2)
        c.snapshot()
        assert list(c.per_transaction()) == [5, 2]

    def test_per_transaction_empty(self):
        assert MessageCounter().per_transaction().size == 0

    def test_reset(self):
        c = MessageCounter()
        c.count("x", 5)
        c.snapshot()
        c.reset()
        assert c.total == 0
        assert c.snapshots.size == 0


class TestMSETracker:
    def test_record_returns_squared_error(self):
        t = MSETracker()
        assert t.record(0.8, 1.0) == pytest.approx(0.04)

    def test_mse_is_mean(self):
        t = MSETracker()
        t.record(0.0, 1.0)  # 1.0
        t.record(1.0, 1.0)  # 0.0
        assert t.mse() == pytest.approx(0.5)

    def test_mse_empty_is_nan(self):
        assert math.isnan(MSETracker().mse())

    def test_windowed_matches_naive(self):
        t = MSETracker(window=3)
        errors = [0.1, 0.5, 0.9, 0.2, 0.7]
        for e in errors:
            t.record(e, 0.0)
        windowed = t.windowed_mse()
        sq = np.asarray(errors) ** 2
        for i in range(len(errors)):
            lo = max(0, i - 2)
            assert windowed[i] == pytest.approx(sq[lo : i + 1].mean())

    def test_tail_mse(self):
        t = MSETracker(window=2)
        t.record(1.0, 0.0)
        t.record(0.0, 0.0)
        t.record(0.0, 0.0)
        assert t.tail_mse() == pytest.approx(0.0)
        assert t.tail_mse(3) == pytest.approx(1.0 / 3)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            MSETracker(window=0)

    def test_len_and_reset(self):
        t = MSETracker()
        t.record(0.5, 0.5)
        assert len(t) == 1
        t.reset()
        assert len(t) == 0


class TestResponseTimeTracker:
    def test_cumulative(self):
        t = ResponseTimeTracker()
        t.record(10.0)
        t.record(5.0)
        assert list(t.cumulative()) == [10.0, 15.0]

    def test_mean(self):
        t = ResponseTimeTracker()
        t.record(10.0)
        t.record(20.0)
        assert t.mean() == pytest.approx(15.0)

    def test_mean_empty_nan(self):
        assert math.isnan(ResponseTimeTracker().mean())

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResponseTimeTracker().record(-1.0)

    def test_reset(self):
        t = ResponseTimeTracker()
        t.record(1.0)
        t.reset()
        assert len(t) == 0
