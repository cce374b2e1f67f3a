"""repro.perf: report schema, history store, rolling-baseline gate.

The acceptance contract for the perf observatory: an injected 2x
throughput collapse and a 2x memory blow-up in a synthetic history must
both be flagged by ``gate()``, while a clean (within-noise) history
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
    for _ in range(3):
        for opts, tx_per_sec in ((smoke, 10_000.0), (churn, 4_700.0)):
            history.record(
                PerfReport(
                    suite="kernel", metrics={"tx_per_sec": tx_per_sec},
                    backend="hirep-array", network_size=20_000, opts=opts, scale="small",
                )
            )
    history.record(
        PerfReport(
            suite="kernel", metrics={"tx_per_sec": 4_700.0}, backend="hirep-array",
            network_size=20_000, opts=smoke, scale="paper",
        )
    )
    assert len(history.series()) == 3
    result = gate(history)
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


def test_gate_clean_history_passes(tmp_path):
    history = _seeded_history(tmp_path, [100.0, 102.0, 98.0, 101.0, 99.0])
    result = gate(history)
    assert result.ok
    assert result.checked == 1
    assert result.findings == []


def test_gate_flags_2x_throughput_regression(tmp_path):
    history = _seeded_history(
        tmp_path, [1000.0, 1010.0, 990.0, 1005.0, 995.0, 500.0]
    )
    result = gate(history)
    assert not result.ok
    (finding,) = result.findings
    assert finding.metric == "tx_per_sec"
    assert finding.direction == "higher"
    assert finding.factor == pytest.approx(2.0, rel=0.02)
    assert "worse" in finding.render()


def test_gate_flags_2x_memory_regression(tmp_path):
    history = _seeded_history(
        tmp_path, [1000.0, 980.0, 1020.0, 2000.0], metric="rss_peak_kb"
    )
    result = gate(history)
    assert not result.ok
    (finding,) = result.findings
    assert finding.metric == "rss_peak_kb"
    assert finding.direction == "lower"
    assert finding.factor == pytest.approx(2.0, rel=0.02)


def test_gate_tolerance_is_the_bar(tmp_path):
    # just inside the tolerance passes, just outside it is flagged
    inside = 100.0 / (1.0 + TOLERANCE) * 1.01
    outside = 100.0 / (1.0 + TOLERANCE) * 0.99
    assert gate(_seeded_history(tmp_path / "in", [100.0, 100.0, 100.0, inside])).ok
    assert not gate(_seeded_history(tmp_path / "out", [100.0, 100.0, 100.0, outside])).ok
    assert gate(_seeded_history(tmp_path / "s_in", [1.0, 1.0, 1.0 + TOLERANCE * 0.99], "run_s")).ok
    assert not gate(
        _seeded_history(tmp_path / "s_out", [1.0, 1.0, 1.0 + TOLERANCE * 1.01], "run_s")
    ).ok


def test_gate_validates_knobs(tmp_path):
    history = _seeded_history(tmp_path, [1.0, 1.0])
    with pytest.raises(ConfigError, match="tolerance"):
        gate(history, tolerance=0.0)


def test_gate_first_run_establishes_series(tmp_path):
    history = _seeded_history(tmp_path, [100.0])
    result = gate(history)
    assert result.ok
    assert result.checked == 0
    assert result.established == 1


def test_gate_median_resists_one_outlier(tmp_path):
    # one historically absurd run must not move the bar: the median of
    # [100, 100, 10_000] is 100, so a candidate at 90 stays within tolerance
    history = _seeded_history(tmp_path, [100.0, 100.0, 10_000.0, 90.0])
    assert gate(history).ok


def test_gate_window_limits_lookback(tmp_path):
    # runs older than the window age out: the baseline is the median of
    # the last WINDOW runs (all 10), and a candidate at 9 passes despite
    # the older 1000s; with two 10s the 1000s are the window's median
    assert WINDOW == 5
    history = _seeded_history(tmp_path / "aged", [1000.0] * 3 + [10.0] * WINDOW + [9.0])
    assert gate(history).ok
    history = _seeded_history(tmp_path / "kept", [1000.0] * 3 + [10.0] * 2 + [9.0])
    assert not gate(history).ok


def test_gate_ignores_directionless_metrics(tmp_path):
    history = PerfHistory(tmp_path)
    for value in (0.1, 0.1, 10.0):
        history.record(report(hirep_mse=value))
    result = gate(history)
    assert result.ok
    assert result.checked == 0


def test_gate_suites_filter(tmp_path):
    history = _seeded_history(tmp_path, [1000.0, 1000.0, 10.0])
    history.record(report(suite="serve", tx_per_sec=50.0))
    assert gate(history, suites=["serve"]).ok
    assert not gate(history, suites=["kernel"]).ok


def test_gate_vanished_throughput_is_infinitely_worse(tmp_path):
    history = _seeded_history(tmp_path, [100.0, 100.0, 0.0])
    (finding,) = gate(history).findings
    assert finding.factor == float("inf")


def test_rolling_median_lower_of_two():
    assert rolling_median([4.0, 1.0, 3.0, 2.0]) == 2.0
    assert rolling_median([5.0]) == 5.0
    with pytest.raises(ConfigError):
        rolling_median([])


def test_gate_render_mentions_counts(tmp_path):
    history = _seeded_history(tmp_path, [100.0, 100.0, 40.0])
    text = gate(history).render()
    assert "REGRESSIONS (1)" in text
    assert "tx_per_sec" in text
