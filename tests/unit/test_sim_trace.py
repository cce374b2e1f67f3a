"""Unit tests for simulation tracing: the timeline buffer, and the network
tap that feeds it (the telemetry plane's send/fault observers)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs.plane import TelemetryPlane
from repro.sim.trace import Tracer


def tap_network(network) -> Tracer:
    """The plane's timeline over a bare network: attach hooks whatever the
    system has, and this one has nothing but observer lists."""
    plane = TelemetryPlane()
    plane.attach(SimpleNamespace(network=network))
    return plane.tracer


class TestTracer:
    def test_record_and_read(self):
        tracer = Tracer()
        tracer.record(1.5, "send", src=0, dst=1)
        tracer.record(2.5, "recv", dst=1)
        assert len(tracer) == 2
        assert tracer.entries()[0].get("src") == 0
        assert tracer.entries("recv")[0].time == 2.5

    def test_bounded_buffer_keeps_recent(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer.record(float(i), "tick", i=i)
        assert len(tracer) == 3
        assert [e.get("i") for e in tracer.entries()] == [7, 8, 9]
        assert tracer.recorded == 10

    def test_eviction_is_counted_never_silent(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer.record(float(i), "tick", i=i)
        assert tracer.evicted == 7

    def test_summary_accounts_for_every_entry(self):
        tracer = Tracer(capacity=2)
        for t in (2.0, 3.0, 4.0):
            tracer.record(t, "keep")
        assert tracer.summary() == "2 held, 3 recorded, 1 evicted"

    def test_render_reports_eviction(self):
        tracer = Tracer(capacity=2)
        for t in (1.0, 2.0, 3.0):
            tracer.record(t, "x")
        assert "1 evicted" in tracer.render()
        # without eviction the timeline stays bare (backward compatible)
        clean = Tracer()
        clean.record(1.0, "x")
        assert "evicted" not in clean.render()

    def test_fields_may_reuse_envelope_names(self):
        tracer = Tracer()
        tracer.record(1.0, "fault.drop", category="trust_query", time=9)
        entry = tracer.entries()[0]
        assert entry.category == "fault.drop"
        assert entry.get("category") == "trust_query"

    def test_between(self):
        tracer = Tracer()
        for t in (1.0, 2.0, 3.0, 4.0):
            tracer.record(t, "x")
        assert [e.time for e in tracer.between(2.0, 4.0)] == [2.0, 3.0]

    def test_render_timeline(self):
        tracer = Tracer()
        tracer.record(12.345, "trust_query", src=3, dst=9)
        text = tracer.render()
        assert "trust_query" in text
        assert "src=3" in text

    def test_entry_get_default(self):
        tracer = Tracer()
        tracer.record(1.0, "x", a=1)
        assert tracer.entries()[0].get("missing", "fallback") == "fallback"

    def test_clear(self):
        tracer = Tracer()
        tracer.record(1.0, "x")
        tracer.clear()
        assert len(tracer) == 0

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            Tracer(capacity=0)


class TestNetworkTap:
    def test_traces_datagrams(self):
        from repro.net.latency import ConstantLatency
        from repro.net.network import P2PNetwork
        from repro.net.topology import ring_lattice

        net = P2PNetwork(
            ring_lattice(6, k=1),
            np.random.default_rng(0),
            latency_model=ConstantLatency(5.0),
            model_transmission=False,
        )
        tracer = tap_network(net)
        net.send(0, 3, "hello", category="trust_query")
        net.send(1, 2, "x", category="control")
        net.run()
        assert len(tracer) == 2
        entry = tracer.entries("trust_query")[0]
        assert entry.get("src") == 0
        assert entry.get("dst") == 3
        assert entry.get("bytes") > 0

    def test_traces_full_transaction(self, small_system):
        tracer = tap_network(small_system.network)
        small_system.run_transaction(requestor=0)
        categories = {e.category for e in tracer.entries()}
        assert "trust_query" in categories
        assert "trust_response" in categories
        assert "transaction_report" in categories

    def test_traces_fault_plane_interventions(self):
        from repro.net.faults import FaultPlane, LatencySpike, MessageLoss
        from repro.net.latency import ConstantLatency
        from repro.net.network import P2PNetwork
        from repro.net.topology import ring_lattice

        net = P2PNetwork(
            ring_lattice(6, k=1),
            np.random.default_rng(0),
            latency_model=ConstantLatency(5.0),
            model_transmission=False,
        )
        FaultPlane([MessageLoss(1.0)], seed=1).install(net)
        tracer = tap_network(net)
        net.send(0, 3, "x", category="trust_query")
        drops = tracer.entries("fault.drop")
        assert len(drops) == 1
        assert drops[0].get("src") == 0
        assert drops[0].get("category") == "trust_query"

        delayed = P2PNetwork(
            ring_lattice(6, k=1),
            np.random.default_rng(0),
            latency_model=ConstantLatency(5.0),
            model_transmission=False,
        )
        FaultPlane([LatencySpike(1.0, 300.0)], seed=1).install(delayed)
        tracer2 = tap_network(delayed)
        delayed.send(0, 3, "x", category="trust_query")
        spikes = tracer2.entries("fault.delay")
        assert len(spikes) == 1
        assert spikes[0].get("extra_ms") == pytest.approx(300.0)

    def test_fault_observers_idle_without_fault_plane(self):
        from repro.net.latency import ConstantLatency
        from repro.net.network import P2PNetwork
        from repro.net.topology import ring_lattice

        net = P2PNetwork(
            ring_lattice(4, k=1),
            np.random.default_rng(0),
            latency_model=ConstantLatency(5.0),
            model_transmission=False,
        )
        tracer = tap_network(net)
        net.send(0, 1, "x", category="control")
        assert tracer.entries("fault.drop") == []
        assert tracer.entries("fault.delay") == []
        assert len(tracer.entries("control")) == 1
