"""Unit tests for the telemetry plane (repro.obs.plane).

Uses the ``small_system`` fixture (a bootstrapped HiRepSystem) and checks
the observability contract end to end: span nesting/ordering at a fixed
seed, metric absorption, fault-event capture, zero-cost detachment — and
that every executor reaches the plane through the one runtime seam
(``TransactionRuntime.begin`` / ``finish``), once per transaction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import HiRepConfig
from repro.core.registry import build_system
from repro.core.runtime import TransactionRuntime
from repro.core.semantics import TRUST_TRAFFIC_CATEGORIES
from repro.errors import ConfigError, SimulationError
from repro.obs.capture import capture
from repro.obs.plane import TelemetryPlane
from repro.serve.load import LoadGenerator, build_trace
from repro.serve.system import ServeSystem


@pytest.fixture
def traced(small_system):
    plane = TelemetryPlane()
    plane.attach(small_system)
    small_system.run(3, requestor=0)
    return plane, small_system


class TestSpans:
    def test_one_txn_span_per_transaction(self, traced):
        plane, system = traced
        txns = [s for s in plane.spans.spans() if s.category == "txn"]
        assert len(txns) == 3
        assert all(s.finished for s in txns)
        assert [s.attrs["index"] for s in txns] == [0, 1, 2]
        assert txns[0].attrs["requestor"] == 0

    def test_phase_children_nest_inside_their_transaction(self, traced):
        plane, _ = traced
        for txn in (s for s in plane.spans.spans() if s.category == "txn"):
            phases = [
                s for s in plane.spans.children_of(txn) if s.category == "phase"
            ]
            assert [s.name for s in phases] == ["query", "report"]
            assert phases[0].end_ms == phases[1].start_ms
            for phase in phases:
                assert phase.start_ms >= txn.start_ms
                assert phase.end_ms <= txn.end_ms

    def test_flight_spans_parented_under_open_txn(self, traced):
        plane, _ = traced
        flights = [s for s in plane.spans.spans() if s.category == "msg"]
        assert flights, "dispatcher tap should have produced flight spans"
        txn_ids = {s.span_id for s in plane.spans.spans() if s.category == "txn"}
        assert all(s.parent_id in txn_ids for s in flights)
        assert all(s.finished and s.duration_ms >= 0.0 for s in flights)

    def test_flight_spans_can_be_disabled(self, small_system):
        plane = TelemetryPlane(flight_spans=False)
        plane.attach(small_system)
        small_system.run(1)
        assert [s for s in plane.spans.spans() if s.category == "msg"] == []
        assert small_system.dispatcher.tap is None
        assert plane.tracer.entries("dispatch.handled") == []

    def test_span_ordering_deterministic_at_fixed_seed(self, small_config):
        from repro.core.system import HiRepSystem

        def signature():
            system = HiRepSystem(small_config)
            system.bootstrap()
            plane = TelemetryPlane()
            plane.attach(system)
            system.run(3, requestor=0)
            return [
                (s.span_id, s.parent_id, s.name, s.start_ms, s.end_ms)
                for s in plane.spans.spans()
            ]

        assert signature() == signature()


class TestMetrics:
    def test_registry_absorbs_system_silos(self, traced):
        plane, system = traced
        snap = plane.collect()
        assert snap["net.messages.total"] == system.counter.total
        assert snap["transactions"] == 3
        assert snap["trust.mse"] == pytest.approx(system.mse.mse())
        assert snap["retry.retries_sent"] == system.retry_stats()["retries_sent"]
        assert snap["obs.spans.recorded"] == len(plane.spans)

    def test_spans_are_not_recounted_as_metrics(self, traced):
        # a span's duration and messages live on the span, not in the snapshot
        plane, _ = traced
        assert not [k for k in plane.collect() if "span_ms" in k or "msgs_per_tx" in k]

    def test_second_attachment_gets_label_prefix(self, small_config):
        from repro.core.system import HiRepSystem

        a = HiRepSystem(small_config)
        a.bootstrap()
        b = HiRepSystem(small_config)
        b.bootstrap()
        plane = TelemetryPlane()
        plane.attach(a)
        plane.attach(b)
        assert plane.labels() == ["", "sys1"]
        snap = plane.collect()
        assert "net.messages.total" in snap
        assert "sys1.net.messages.total" in snap

    def test_reused_label_is_refused_at_attach(self, small_config):
        from repro.core.system import HiRepSystem

        a, b = HiRepSystem(small_config), HiRepSystem(small_config)
        plane = TelemetryPlane()
        plane.attach(a, label="x")
        with pytest.raises(ConfigError, match="already in use"):
            plane.attach(b, label="x")
        # refused before anything was hooked
        assert b.telemetry is None and b.network.observers == []
        assert plane.labels() == ["x"]
        # the default label of a later system may not take a used one either
        plane.attach(b, label="sys2")
        with pytest.raises(ConfigError, match="already in use"):
            plane.attach(HiRepSystem(small_config))


class TestFaultEvents:
    def test_injected_drops_and_delays_are_on_the_timeline(self, small_system):
        from repro.net.faults import FaultPlane, LatencySpike, MessageLoss

        plane = TelemetryPlane()
        plane.attach(small_system)
        FaultPlane(
            [MessageLoss(0.3), LatencySpike(0.3, 250.0)], seed=3
        ).install(small_system.network)
        small_system.run(2)
        drops = plane.tracer.entries("fault.drop")
        delays = plane.tracer.entries("fault.delay")
        assert drops or delays
        if drops:
            assert drops[0].get("category") is not None
        if delays:
            assert delays[0].get("extra_ms") > 0.0
        # FaultStats is the one count of interventions; the timeline agrees
        snap = plane.collect()
        assert snap["fault.drops"] == len(drops)
        assert snap["fault.latency_spikes"] == len(delays)
        assert "fault.messages_seen" in snap
        assert not [k for k in snap if k.startswith("obs.fault")]


class TestZeroCost:
    def test_unattached_system_keeps_class_run_transaction(self, small_system):
        assert "run_transaction" not in vars(small_system)

    def test_attach_leaves_run_transaction_alone(self, traced):
        _, system = traced
        assert "run_transaction" not in vars(system)
        assert type(system).run_transaction is TransactionRuntime.run_transaction

    def test_network_has_no_observers_without_attach(self, small_system):
        assert small_system.network.observers == []
        assert small_system.network.fault_observers == []
        assert small_system.dispatcher.tap is None
        assert small_system.telemetry is None

    def test_runtime_base_class_untouched(self):
        assert "run_transaction" in vars(TransactionRuntime)
        assert TransactionRuntime.telemetry is None


# ------------------------------------------------------------ the one seam


_N64 = HiRepConfig(network_size=64, seed=11)


@pytest.fixture
def built():
    """build(name) -> an N=64 system built under whatever capture is open;
    live fleets are torn down afterwards."""
    systems = []

    def build(name: str):
        systems.append(build_system(name, _N64))
        return systems[-1]

    yield build
    for system in systems:
        if isinstance(system, ServeSystem):
            system.down()


class TestOnePlanePerSystem:
    def test_attach_twice_records_everything_once(self, built):
        system = built("hirep")
        system.bootstrap()
        plane = TelemetryPlane()
        assert plane.attach(system).attach(system) is plane
        assert plane.attached == 1
        system.run(2)
        # 2 x (180 sends + 30 dispatches), and one span per transaction
        assert plane.tracer.recorded == 420
        assert len(plane.spans.spans("transaction")) == 2
        assert len(system.network.observers) == 1

    def test_second_plane_is_refused(self, built):
        system = built("hirep")
        TelemetryPlane().attach(system)
        with pytest.raises(ConfigError, match="exactly one"):
            TelemetryPlane().attach(system)

    def test_serve_adopts_the_capture_plane_over_its_own(self, built):
        own = TelemetryPlane()
        with capture() as plane:
            system = built("serve")
        assert system.telemetry is plane
        assert plane.attached == 1
        assert own.attached == 0
        assert built("serve").telemetry.flight_spans is False  # no capture: its own


class TestSpanIdentity:
    def test_span_index_is_ticket_and_outcome_index(self, built):
        system = built("hirep")
        plane = TelemetryPlane().attach(system)
        first = system.run_transaction()
        tx = system.begin()
        assert tx.span.attrs["index"] == tx.index == 1
        second = system.finish(tx, system._execute(tx.requestor, tx.provider))
        spans = plane.spans.spans("transaction")
        assert [s.attrs["index"] for s in spans] == [first.index, second.index]

    @pytest.mark.parametrize("name", ["hirep", "serve"])
    def test_rejected_transaction_leaves_no_span(self, name, built):
        system = built(name)
        plane = system.telemetry or TelemetryPlane().attach(system)
        with pytest.raises(SimulationError):
            system.run_transaction(0, 10**6)
        assert len(plane.spans) == 0
        outcome = system.run_transaction(0)
        (span,) = plane.spans.spans("transaction")
        assert span.finished and span.attrs["index"] == outcome.index == 0


#: executor -> does it put per-message sends on the wire (vs analytic billing)?
_SENDS = {"hirep": True, "hirep-array": False, "serve": True, "voting": False}


@pytest.mark.parametrize("name", list(_SENDS))
def test_capture_sees_every_executor_through_the_one_seam(name, built):
    transactions = 4
    with capture() as plane:
        system = built(name)
        if name == "serve":
            system.up()
            system.reset_metrics()
            trace = build_trace("pooled", 64, transactions, np.random.default_rng(1))
            # LoadGenerator drives run_transaction_async, not the sync façade
            outcomes = LoadGenerator(system, trace, concurrency=2).run().outcomes
        else:
            outcomes = system.run(transactions)
    assert system.telemetry is plane and plane.attached == 1

    spans = plane.spans.spans("transaction")
    assert len(spans) == transactions and all(s.finished for s in spans)
    assert sorted(s.attrs["index"] for s in spans) == sorted(o.index for o in outcomes)
    by_index = {o.index: o for o in outcomes}
    for span in spans:
        outcome = by_index[span.attrs["index"]]
        assert span.attrs["requestor"] == outcome.requestor
        assert span.attrs["provider"] == outcome.provider

    if name != "voting":  # the three hiREP executors speak one vocabulary
        for span in spans:
            phases = [
                c for c in plane.spans.children_of(span) if c.category == "phase"
            ]
            assert [c.name for c in phases] == ["query", "report"]
            assert span.start_ms == phases[0].start_ms
            assert phases[0].end_ms == phases[1].start_ms
            assert phases[1].end_ms == span.end_ms
            assert phases[0].start_ms <= phases[0].end_ms <= phases[1].end_ms

    # Every trust message is one network send where messages are sent at all.
    sends = [e for e in plane.tracer.entries() if e.get("src") is not None]
    on_the_wire = sum(
        system.counter.by_category[c] for c in TRUST_TRAFFIC_CATEGORIES
    )
    assert len(sends) == (on_the_wire if _SENDS[name] else 0)
    snapshot = plane.collect()
    assert snapshot["transactions"] == transactions
    assert snapshot["net.messages.total"] == system.counter.total
    assert snapshot["obs.spans.recorded"] == len(plane.spans)
