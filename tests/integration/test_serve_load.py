"""Integration: trace-replaying load against a live in-process fleet.

The CI serve job runs the full acceptance load (64 peers, 500
transactions) through the ``hirep-serve`` CLI; this suite exercises the
same path at a size that keeps the tier-1 run fast.
"""

import numpy as np
import pytest

from repro.core.config import HiRepConfig
from repro.errors import ConfigError
from repro.obs.bundle import load_bundle, store_bundle
from repro.serve import LoadGenerator, ServeSystem, build_trace
from repro.obs.cli import main as obs_main
from repro.obs.slo import render_slo
from repro.serve.report import slo_summary
from repro.workloads import Transaction


@pytest.fixture
def fleet():
    config = HiRepConfig(network_size=64, seed=2006)
    with ServeSystem(config) as system:
        yield system


def make_trace(system, count, seed=1):
    return build_trace(
        "pooled", system.network.n, count, np.random.default_rng(seed)
    )


def test_concurrent_load_loses_nothing(fleet):
    trace = make_trace(fleet, 80)
    report = LoadGenerator(fleet, trace, concurrency=8).run()
    assert report.offered == 80
    assert report.completed == 80
    assert report.lost == 0
    assert fleet.lost_transactions == 0
    assert report.tx_per_sec > 0.0
    # Quiescent after the final drain: nothing stuck on the transport.
    assert fleet.transport.in_flight() == 0


def test_outcome_indices_are_unique_and_monotone_under_concurrency(fleet):
    """Two in-flight transactions must never share an Outcome.index."""
    report = LoadGenerator(fleet, make_trace(fleet, 40), concurrency=2).run()
    assert report.lost == 0
    assert sorted(o.index for o in report.outcomes) == list(range(40))
    assert fleet.transactions_run == 40


def test_slo_summary_has_percentiles_and_traffic(fleet, tmp_path, capsys):
    trace = make_trace(fleet, 40)
    report = LoadGenerator(fleet, trace, concurrency=4).run()
    summary = slo_summary(fleet, report)
    for phase in ("transaction", "query", "report"):
        stats = summary["latency_ms"][phase]
        assert stats["count"] == 40
        assert 0.0 < stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]
    assert summary["traffic"]["msgs_per_tx"] > 0.0
    assert summary["transactions"] == {"offered": 40, "completed": 40, "lost": 0}
    assert summary["traffic"]["frames_rejected"] == 0
    rendered = render_slo(summary)
    assert "0 rejected)" in rendered
    # The bundle is the run's one artifact: the summary rides in meta.json
    # and hirep-obs summarize prints what hirep-serve load printed.
    _key, path = store_bundle(fleet.telemetry, tmp_path, meta={"slo": summary})
    assert load_bundle(path).meta["slo"] == summary
    assert obs_main(["summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert rendered in out
    assert "span latency (wall-ms):" in out


def test_telemetry_bundle_round_trips(fleet, tmp_path):
    trace = make_trace(fleet, 20)
    LoadGenerator(fleet, trace, concurrency=4).run()
    key, path = store_bundle(fleet.telemetry, tmp_path, meta={"tool": "test"})
    bundle = load_bundle(path)
    assert bundle.meta["tool"] == "test"
    assert bundle.metrics["transactions"] == 20.0
    assert any(s["name"] == "transaction" for s in bundle.spans)


def test_open_loop_arrival_rate_paces_the_run():
    config = HiRepConfig(network_size=16, seed=9)
    with ServeSystem(config) as system:
        trace = make_trace(system, 10)
        report = LoadGenerator(
            system, trace, concurrency=4, arrival_rate_tps=50.0
        ).run()
    assert report.lost == 0
    # 10 arrivals at 50 tx/s cannot complete faster than the 9th release.
    assert report.wall_ms >= 9 * (1000.0 / 50.0)


def test_failed_transactions_are_counted_lost_not_swallowed():
    config = HiRepConfig(network_size=12, seed=5)
    with ServeSystem(config) as system:
        trace = make_trace(system, 6)
        # Poison two entries with a provider outside the fleet.
        trace[2] = Transaction(index=2, requestor=trace[2].requestor, provider=999)
        trace[4] = Transaction(index=4, requestor=trace[4].requestor, provider=999)
        report = LoadGenerator(system, trace, concurrency=2).run()
    assert report.offered == 6
    assert report.completed == 4
    assert report.lost == 2
    assert system.lost_transactions == 2
    assert all("SimulationError" in err for err in report.errors)


def test_generator_validates_knobs(fleet):
    with pytest.raises(ConfigError):
        LoadGenerator(fleet, [], concurrency=0)
    with pytest.raises(ConfigError):
        LoadGenerator(fleet, [], arrival_rate_tps=-1.0)
    with pytest.raises(ConfigError):
        build_trace("bursty", 16, 5, np.random.default_rng(0))
