"""Unit tests for simulation tracing: the timeline buffer, and the network
tap that feeds it (the telemetry plane's send/fault observers)."""

from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs.plane import TelemetryPlane
from repro.sim.trace import TraceEntry, Tracer


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


class _NoFullWalk(deque):
    """A buffer that refuses to be walked from the front."""

    def __iter__(self):
        raise AssertionError("the whole buffer was walked")


class TestFullBufferReads:
    """Events are stored as plain records; every read equals what a buffer
    of :class:`TraceEntry` objects would give."""

    CAPACITY = 5

    @pytest.fixture
    def filled(self):
        tracer = Tracer(capacity=self.CAPACITY)
        reference = []
        for i in range(12):
            time, category = float(i) * 1.5, ("send", "recv", "fault.drop")[i % 3]
            fields = {"src": i, "dst": i + 1} if i % 2 else {"category": "x", "time": i}
            tracer.record(time, category, **fields)
            reference.append(TraceEntry(time, category, tuple(fields.items())))
        return tracer, reference[-self.CAPACITY :]

    def test_counts(self, filled):
        tracer, held = filled
        assert (tracer.recorded, tracer.evicted, len(tracer)) == (12, 7, 5)
        assert tracer.summary() == "5 held, 12 recorded, 7 evicted"

    def test_entries_and_between(self, filled):
        tracer, held = filled
        assert tracer.entries() == held
        for category in ("send", "recv", "fault.drop", "none"):
            assert tracer.entries(category) == [e for e in held if e.category == category]
        for start, end in ((0.0, 100.0), (11.0, 15.0), (12.0, 12.0), (15.0, 16.5)):
            assert tracer.between(start, end) == [e for e in held if start <= e.time < end]

    @pytest.mark.parametrize("limit", [1, 3, 5, 50, 0, -2, -9])
    def test_render(self, filled, limit):
        tracer, held = filled
        lines = [e.render() for e in held[-limit:]] + [f"({tracer.summary()})"]
        assert tracer.render(limit) == "\n".join(lines)

    def test_render_reads_only_the_tail(self, filled):
        tracer, held = filled
        expected = tracer.render(3)
        tracer._events = _NoFullWalk(tracer._events, maxlen=self.CAPACITY)
        assert tracer.render(3) == expected


def test_send_records_read_as_keyword_records():
    """A send held flat reads back, counts and evicts exactly as the same
    send recorded with keyword fields, mixed with other records."""
    flat, keyed = Tracer(capacity=5), Tracer(capacity=5)
    for i in range(12):
        time, category = float(i) * 1.5, ("send", "recv")[i % 2]
        if i % 3:
            flat.record_send(time, category, i, i + 1, 100 + i)
            keyed.record(time, category, src=i, dst=i + 1, bytes=100 + i)
        else:
            for tracer in (flat, keyed):
                tracer.record(time, "fault.drop", category="x", time=i)
    assert flat.summary() == keyed.summary() == "5 held, 12 recorded, 7 evicted"
    assert flat.entries() == keyed.entries()
    assert flat.entries("send") == keyed.entries("send")
    assert flat.between(9.0, 15.0) == keyed.between(9.0, 15.0)
    for limit in (1, 3, 50, -2):
        assert flat.render(limit) == keyed.render(limit)
    last = TraceEntry(16.5, "recv", (("src", 11), ("dst", 12), ("bytes", 111)))
    assert flat.entries()[-1] == last


def test_hirep_bundle_key_is_pinned(small_config, tmp_path):
    """The bundle a traced hirep run stores is byte-for-byte what it was
    when the timeline held TraceEntry objects."""
    from repro.core.registry import build_system
    from repro.obs.bundle import store_bundle
    from repro.obs.capture import capture

    with capture() as plane:
        system = build_system("hirep", small_config)
        system.bootstrap()
        system.run(3, requestor=0)
    key, _ = store_bundle(plane, tmp_path)
    assert plane.tracer.recorded == 144
    assert key == "f4c391be2d1893ca5bd742a321d10ff747348825ef6bd37b96f0cfbbf091aa3f"


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
