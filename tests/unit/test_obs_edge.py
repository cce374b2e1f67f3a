"""Edge cases of the observability primitives.

The profiler work widened what flows through these seams (profile gauges
with optional ``None``/NaN fields, wall-clock readings in benchmarks),
so the degenerate inputs get explicit coverage: percentiles of nothing,
histograms that never observed, clocks that must never run backwards,
and exporters handed non-JSON floats.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigError
from repro.obs.clock import WallClock
from repro.obs.export import write_metrics_json
from repro.obs.metrics import Histogram
from repro.sim.stats import summarize


# ---------------------------------------------------------------- percentiles


def _percentiles(values):
    stats = summarize(values)
    return stats.p50, stats.p95, stats.p99


def test_percentile_empty_is_nan():
    assert all(math.isnan(p) for p in _percentiles([]))
    assert summarize([]).n == 0


def test_percentile_single_sample_every_q():
    assert _percentiles([42.0]) == (42.0, 42.0, 42.0)


def test_percentile_interpolates_linearly():
    # the one rule (numpy's default): a blend of the two nearest order
    # statistics, independent of input order, never outside [min, max]
    p50, p95, p99 = _percentiles([4.0, 1.0, 3.0, 2.0])
    assert p50 == pytest.approx(2.5)
    assert p95 == pytest.approx(3.85)
    assert p99 == pytest.approx(3.97)
    assert summarize([1.0, 2.0, 3.0]).p50 == 2.0  # an observed value when one sits there


# ---------------------------------------------------------------- Histogram


def test_histogram_empty_snapshot():
    hist = Histogram("latency", bounds=(1.0, 10.0))
    items = dict(hist.as_items())
    assert items["count"] == 0
    assert items["sum"] == 0.0
    assert items["le[1]"] == 0 and items["le[inf]"] == 0


def test_histogram_single_sample_bucketing():
    hist = Histogram("latency", bounds=(1.0, 10.0))
    hist.observe(5.0)
    items = dict(hist.as_items())
    assert items["count"] == 1
    assert items["sum"] == 5.0
    assert items["le[1]"] == 0
    assert items["le[10]"] == 1
    assert items["le[inf]"] == 0


def test_histogram_boundary_lands_in_lower_bucket():
    hist = Histogram("latency", bounds=(1.0, 10.0))
    hist.observe(1.0)  # inclusive upper edge
    assert dict(hist.as_items())["le[1]"] == 1


def test_histogram_overflow_bucket():
    hist = Histogram("latency", bounds=(1.0,))
    hist.observe(100.0)
    assert dict(hist.as_items())["le[inf]"] == 1


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ConfigError):
        Histogram("x", bounds=())
    with pytest.raises(ConfigError):
        Histogram("x", bounds=(2.0, 1.0))
    with pytest.raises(ConfigError):
        Histogram("x", bounds=(1.0, 1.0))


# ---------------------------------------------------------------- WallClock


def test_wallclock_starts_near_zero_and_is_monotonic():
    clock = WallClock()
    readings = [clock.now for _ in range(100)]
    assert readings[0] >= 0.0
    assert all(b >= a for a, b in zip(readings, readings[1:]))


def test_wallclock_reset_rezeros():
    clock = WallClock()
    while clock.now < 1.0:
        pass
    clock.reset()
    assert clock.now < 1.0


# ---------------------------------------------------------------- exporter


def test_metrics_json_nan_and_inf_become_null(tmp_path):
    # profiler fields can legitimately be NaN/absent (e.g. a wall_ms of
    # an interrupted window); the exporter must still emit valid JSON
    path = write_metrics_json(
        {
            "prof.wall_ms": float("nan"),
            "prof.rss_peak_kb": float("inf"),
            "txn.count": 3.0,
        },
        tmp_path / "metrics.json",
    )
    raw = path.read_text()
    assert "NaN" not in raw and "Infinity" not in raw
    data = json.loads(raw)
    assert data["prof.wall_ms"] is None
    assert data["prof.rss_peak_kb"] is None
    assert data["txn.count"] == 3.0
