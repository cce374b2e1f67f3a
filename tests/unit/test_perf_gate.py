"""repro.perf: report schema, history store, rolling-baseline gate.

The acceptance contract for the perf observatory: a session with an
injected 2x throughput collapse or a 2x memory blow-up against a
synthetic baseline must be flagged by ``gate()``, and so must a session
that lacks a baseline series, while a clean (within-noise) session
passes.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.perf.gate import TOLERANCE, WINDOW, gate, latest_by_key, rolling_median
from repro.perf.history import PerfHistory
from repro.perf.report import PERF_SCHEMA, PerfReport, metric_direction


def report(
    suite: str = "kernel",
    backend: str | None = "hirep-array",
    n: int | None = 1000,
    **metrics: float,
) -> PerfReport:
    return PerfReport(
        suite=suite, metrics=metrics, backend=backend, network_size=n
    )


# ---------------------------------------------------------------- PerfReport


def test_report_rejects_non_finite_metrics():
    with pytest.raises(ConfigError, match="finite"):
        report(tx_per_sec=float("nan"))
    with pytest.raises(ConfigError, match="finite"):
        report(tx_per_sec=float("inf"))


def test_report_rejects_empty():
    with pytest.raises(ConfigError, match="suite"):
        PerfReport(suite="", metrics={"x": 1.0})
    with pytest.raises(ConfigError, match="no metrics"):
        PerfReport(suite="kernel", metrics={})


def test_report_roundtrip_and_schema_check():
    original = report(tx_per_sec=100.0, run_s=0.5)
    restored = PerfReport.from_dict(original.to_dict())
    assert restored == original

    bad = original.to_dict() | {"schema": PERF_SCHEMA + 1}
    with pytest.raises(ConfigError, match="schema"):
        PerfReport.from_dict(bad)


def test_metric_direction_naming_convention():
    assert metric_direction("tx_per_sec") == "higher"
    assert metric_direction("speedup_tx_per_sec") == "higher"
    assert metric_direction("pool_speedup") == "higher"
    assert metric_direction("run_s") == "lower"
    assert metric_direction("wall_ms") == "lower"
    assert metric_direction("rss_peak_kb") == "lower"
    assert metric_direction("state_bytes_per_peer") == "lower"
    assert metric_direction("state_bytes") == "lower"
    assert metric_direction("hirep_over_voting2") is None
    assert metric_direction("disabled_overhead_pct") is None


def test_report_key_defaults():
    assert report(backend=None, n=None, x=1.0).key() == ("kernel", "", 0, (), "")
    assert report(x=1.0).key() == ("kernel", "hirep-array", 1000, (), "")


# ---------------------------------------------------------------- PerfHistory


def test_history_roundtrip_in_recording_order(tmp_path):
    history = PerfHistory(tmp_path)
    for value in (100.0, 110.0, 90.0):
        history.record(report(tx_per_sec=value))
    values = [r.metrics["tx_per_sec"] for r in history.records("kernel")]
    assert values == [100.0, 110.0, 90.0]
    assert history.suites() == ["kernel"]


def test_history_series_groups_by_key(tmp_path):
    history = PerfHistory(tmp_path)
    history.record(report(backend="hirep", tx_per_sec=10.0))
    history.record(report(backend="hirep-array", tx_per_sec=100.0))
    history.record(report(backend="hirep-array", n=10_000, tx_per_sec=50.0))
    series = history.series()
    assert set(series) == {
        ("kernel", "hirep", 1000, (), ""),
        ("kernel", "hirep-array", 1000, (), ""),
        ("kernel", "hirep-array", 10_000, (), ""),
    }


def test_cells_that_differ_in_options_or_scale_are_separate_series(tmp_path):
    # A small-scale kernel session times the 20 000-peer seeded smoke cell
    # (~10 000 tx/s) and the 20 000-peer churn cell (~4 700 tx/s): one
    # series would gate the churn row against the smoke rows, 2.13x worse.
    history = PerfHistory(tmp_path)
    smoke = {"bootstrap_mode": "seeded"}
    churn = {"bootstrap_mode": "seeded", "churn": "ChurnModel(0.01, 0.2)"}

    def cell(opts, tx_per_sec, scale="small"):
        return PerfReport(
            suite="kernel", metrics={"tx_per_sec": tx_per_sec},
            backend="hirep-array", network_size=20_000, opts=opts, scale=scale,
        )

    for _ in range(3):
        history.record(cell(smoke, 10_000.0))
        history.record(cell(churn, 4_700.0))
    assert len(history.series()) == 2
    session = [cell(smoke, 10_000.0), cell(churn, 4_700.0), cell(smoke, 4_700.0, "paper")]
    result = gate(session, history)
    assert result.ok, result.render()
    assert result.checked == 2 and result.established == 1


def test_history_lines_are_append_only_and_diffable(tmp_path):
    history = PerfHistory(tmp_path)
    path = history.record(report(tx_per_sec=100.0))
    first = path.read_text()
    history.record(report(tx_per_sec=100.0))
    # identical measurement appends an identical line (sorted keys)
    assert path.read_text() == first * 2


def test_history_suite_name_sanitized(tmp_path):
    history = PerfHistory(tmp_path)
    path = history.record(report(suite="serve/load", tx_per_sec=5.0))
    assert path.name == "serve-load.jsonl"
    assert history.records("serve/load")[0].suite == "serve/load"


def test_history_corrupt_line_raises(tmp_path):
    history = PerfHistory(tmp_path)
    history.record(report(tx_per_sec=1.0))
    (tmp_path / "kernel.jsonl").open("a").write("not json\n")
    with pytest.raises(ConfigError, match="corrupt"):
        history.records()


def test_latest_by_key_takes_newest():
    a, b = report(tx_per_sec=1.0), report(tx_per_sec=2.0)
    assert latest_by_key([a, b])[a.key()] is b


# ---------------------------------------------------------------- gate

def _seeded_history(tmp_path, values: list[float], metric: str = "tx_per_sec"):
    history = PerfHistory(tmp_path)
    for value in values:
        history.record(report(**{metric: value}))
    return history


def _gate(tmp_path, values: list[float], metric: str = "tx_per_sec", **kwargs):
    """Gate a one-report session holding ``values[-1]`` against a
    baseline of the values before it."""
    history = _seeded_history(tmp_path, values[:-1], metric)
    return gate([report(**{metric: values[-1]})], history, **kwargs)


def test_gate_clean_history_passes(tmp_path):
    result = _gate(tmp_path, [100.0, 102.0, 98.0, 101.0, 99.0])
    assert result.ok
    assert result.checked == 1
    assert result.findings == [] and result.missing == []


def test_gate_flags_2x_throughput_regression(tmp_path):
    result = _gate(tmp_path, [1000.0, 1010.0, 990.0, 1005.0, 995.0, 500.0])
    assert not result.ok
    (finding,) = result.findings
    assert finding.metric == "tx_per_sec"
    assert finding.direction == "higher"
    assert finding.factor == pytest.approx(2.0, rel=0.02)
    assert "worse" in finding.render()


def test_gate_flags_2x_memory_regression(tmp_path):
    result = _gate(tmp_path, [1000.0, 980.0, 1020.0, 2000.0], metric="rss_peak_kb")
    assert not result.ok
    (finding,) = result.findings
    assert finding.metric == "rss_peak_kb"
    assert finding.direction == "lower"
    assert finding.factor == pytest.approx(2.0, rel=0.02)


def test_gate_tolerance_is_the_bar(tmp_path):
    # just inside the tolerance passes, just outside it is flagged
    inside = 100.0 / (1.0 + TOLERANCE) * 1.01
    outside = 100.0 / (1.0 + TOLERANCE) * 0.99
    assert _gate(tmp_path / "in", [100.0, 100.0, 100.0, inside]).ok
    assert not _gate(tmp_path / "out", [100.0, 100.0, 100.0, outside]).ok
    assert _gate(tmp_path / "s_in", [1.0, 1.0, 1.0 + TOLERANCE * 0.99], "run_s").ok
    assert not _gate(tmp_path / "s_out", [1.0, 1.0, 1.0 + TOLERANCE * 1.01], "run_s").ok


def test_gate_validates_knobs(tmp_path):
    with pytest.raises(ConfigError, match="tolerance"):
        _gate(tmp_path, [1.0, 1.0], tolerance=0.0)


def test_gate_first_run_establishes_series(tmp_path):
    result = _gate(tmp_path, [100.0])
    assert result.ok
    assert result.checked == 0
    assert result.established == 1


def test_gate_flags_a_baseline_series_the_session_lacks(tmp_path):
    history = _seeded_history(tmp_path, [100.0, 100.0])
    history.record(report(n=10_000, tx_per_sec=50.0))
    result = gate([report(tx_per_sec=100.0)], history)
    assert not result.ok
    assert result.findings == []
    assert result.missing == ["kernel/hirep-array N=10000"]
    assert "MISSING FROM SESSION (1):\n  kernel/hirep-array N=10000" in result.render()


def test_gate_refuses_two_session_reports_of_one_series(tmp_path):
    history = _seeded_history(tmp_path, [100.0])
    with pytest.raises(ConfigError, match="two session reports for kernel/hirep-array N=1000"):
        gate([report(tx_per_sec=100.0), report(tx_per_sec=90.0)], history)


def test_gate_median_resists_one_outlier(tmp_path):
    # one historically absurd run must not move the bar: the median of
    # [100, 100, 10_000] is 100, so a session at 90 stays within tolerance
    assert _gate(tmp_path, [100.0, 100.0, 10_000.0, 90.0]).ok


def test_gate_window_limits_lookback(tmp_path):
    # baseline rows older than the window age out: the bar is the median
    # of the last WINDOW rows (all 10), and a session at 9 passes despite
    # the older 1000s; with two 10s the 1000s are the window's median
    assert WINDOW == 5
    assert _gate(tmp_path / "aged", [1000.0] * 3 + [10.0] * WINDOW + [9.0]).ok
    assert not _gate(tmp_path / "kept", [1000.0] * 3 + [10.0] * 2 + [9.0]).ok


def test_gate_ignores_directionless_metrics(tmp_path):
    result = _gate(tmp_path, [0.1, 0.1, 10.0], metric="hirep_mse")
    assert result.ok
    assert result.checked == 0


def test_gate_suites_filter(tmp_path):
    history = _seeded_history(tmp_path, [1000.0, 1000.0])
    history.record(report(suite="serve", tx_per_sec=50.0))
    session = [report(tx_per_sec=10.0), report(suite="serve", tx_per_sec=50.0)]
    assert gate(session, history, suites=["serve"]).ok
    assert not gate(session, history, suites=["kernel"]).ok


def test_gate_default_suites_are_the_sessions(tmp_path):
    history = _seeded_history(tmp_path, [1000.0, 1000.0])
    history.record(report(suite="serve", tx_per_sec=50.0))
    # the baseline's serve series is not gated: the session recorded no serve
    assert gate([report(tx_per_sec=1000.0)], history).ok
    # ...until a suite is named, and then its series must be in the session
    result = gate([report(tx_per_sec=1000.0)], history, suites=["kernel", "serve"])
    assert result.missing == ["serve/hirep-array N=1000"]


def test_gate_vanished_throughput_is_infinitely_worse(tmp_path):
    (finding,) = _gate(tmp_path, [100.0, 100.0, 0.0]).findings
    assert finding.factor == float("inf")


def test_rolling_median_lower_of_two():
    assert rolling_median([4.0, 1.0, 3.0, 2.0]) == 2.0
    assert rolling_median([5.0]) == 5.0
    with pytest.raises(ConfigError):
        rolling_median([])


def test_gate_render_mentions_counts(tmp_path):
    text = _gate(tmp_path, [100.0, 100.0, 40.0]).render()
    assert "REGRESSIONS (1)" in text
    assert "tx_per_sec" in text

