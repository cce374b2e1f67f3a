"""Unit tests for the serve plane: engine, fleet lifecycle, registry."""

import asyncio
import math
import time

import pytest

from repro.core.config import HiRepConfig
from repro.core.registry import build_system, system_names
from repro.errors import ConfigError
from repro.net.churn import ChurnModel
from repro.net.faults import FaultPlane, MessageLoss
from repro.obs.clock import WallClock
from repro.serve import system as system_module
from repro.serve.system import ServeSystem
from repro.serve.transport import Frame


@pytest.fixture
def small():
    return HiRepConfig(network_size=10, seed=31)


def test_wall_engine_advances_monotonically():
    engine = WallClock()
    a = engine.now
    b = engine.now
    assert 0.0 <= a <= b


def test_registry_exposes_serve():
    assert "serve" in system_names()


@pytest.mark.parametrize(
    "option, supported_by",
    [
        ("churn", "hirep-array"),
        ("topology", "hirep-array"),
        ("model_factory", "hirep-array"),
    ],
)
def test_simulator_build_options_are_rejected_loudly(small, option, supported_by):
    value = ChurnModel(0.1, 0.5) if option == "churn" else object()
    with pytest.raises(ConfigError, match=f"{option}=.*'{supported_by}'"):
        build_system("serve", small, **{option: value})
    # Passing nothing for it is fine; a keyword nobody knows is still a TypeError.
    assert not build_system("serve", small, **{option: None}).running
    with pytest.raises(TypeError, match="no_such_option"):
        build_system("serve", small, no_such_option=1)


def test_a_query_timeout_is_refused(small):
    """A deadline on the host's clock would run another retry schedule than
    the simulators' modelled milliseconds, so the fleet refuses one and
    names the executor that takes it."""
    with pytest.raises(ConfigError, match="query_timeout_ms; use 'hirep'$"):
        build_system("serve", small.with_(query_timeout_ms=500.0))
    with pytest.raises(ConfigError, match="query_timeout_ms"):  # built directly
        ServeSystem(small.with_(query_timeout_ms=500.0))


def test_fault_planes_are_refused(small):
    """The live send path has no fault hook, so a plane must not attach."""
    system = build_system("serve", small)
    plane = FaultPlane([MessageLoss(1.0)], seed=3)
    with pytest.raises(ConfigError, match="fault planes"):
        plane.install(system.network)
    assert system.network.faults is None
    system.network.faults = None  # explicit None is what P2PNetwork.__init__ assigns


def test_up_down_idempotent(small):
    system = ServeSystem(small)
    assert not system.running
    system.up()
    assert system.running
    system.up()  # second call is a no-op
    alive = sum(1 for a in system.supervisor.actors.values() if a.alive)
    assert alive == small.network_size
    system.down()
    assert not system.running
    system.down()  # also a no-op


def test_single_transaction_over_the_wire(small):
    with build_system("serve", small) as system:
        outcome = system.run_transaction()
        assert outcome.index == 0
        assert 0.0 <= outcome.estimate <= 1.0
        assert outcome.total_messages > 0
        assert outcome.response_time_ms >= 0.0
        assert not math.isnan(outcome.response_time_ms)
        # Every counted message crossed the transport as an encoded frame.
        assert system.network.frames_sent > 0
        assert system.transport.frames_posted == system.network.frames_sent


def test_context_manager_tears_down(small):
    with ServeSystem(small) as system:
        assert system.running
    assert not system.running


def test_telemetry_accumulates_spans_and_metrics(small):
    with ServeSystem(small) as system:
        for _ in range(3):
            system.run_transaction()
        spans = system.telemetry.spans
        assert len(spans.spans("transaction")) == 3
        assert len(spans.spans("query")) == 3
        snapshot = system.telemetry.collect()
        assert snapshot["transactions"] == 3.0
        assert snapshot["serve.frames_posted"] > 0.0
        assert snapshot["serve.frames_in_flight"] == 0.0


def test_explicit_pair_matches_request(small):
    with ServeSystem(small) as system:
        outcome = system.run_transaction(3, 7)
        assert (outcome.requestor, outcome.provider) == (3, 7)


def test_a_query_held_by_an_offline_node_ends_when_the_fleet_is_quiet():
    """Node 5 goes offline after bootstrap and drops the frames routed
    through it, so some agents never answer.  The query ends once nothing
    is left to arrive, as the simulator's ends on an empty event queue,
    with the simulator's counts — not after the 5 s window for a hung
    fleet."""
    config = HiRepConfig(network_size=24, seed=11)
    outcomes = {}
    for name in ("hirep", "serve"):
        system = build_system(name, config)
        try:
            system.bootstrap()  # the fleet's up() already has
            system.network.set_online(5, False)
            t0 = time.perf_counter()
            outcome = system.run_transaction(0, provider=7)
            elapsed_s = time.perf_counter() - t0
        finally:
            if isinstance(system, ServeSystem):
                system.down()
        outcomes[name] = (outcome.answered, outcome.asked, outcome.trust_messages)
    assert outcomes["serve"] == outcomes["hirep"]
    answered, asked, _ = outcomes["serve"]
    assert 0 < answered < asked
    assert elapsed_s < 1.0  # serve's


def test_quiet_alone_ends_a_query_that_is_never_fully_answered(monkeypatch):
    """With the window for a hung fleet ten minutes long, a query that some
    agents never answer (node 5 is offline and drops what is routed
    through it) still ends at once, twice over: nothing in flight ends
    the wait.  A guard of 30 s stands in for the window."""
    monkeypatch.setattr(system_module, "WAIT_WINDOW_MS", 600_000.0)
    with ServeSystem(HiRepConfig(network_size=24, seed=11)) as system:
        system.network.set_online(5, False)
        assert system._loop is not None
        for _ in range(2):
            outcome = system._loop.run_until_complete(
                asyncio.wait_for(system.run_transaction_async(0, provider=7), 30.0)
            )
            assert 0 < outcome.answered < outcome.asked
            assert outcome.response_time_ms < 5_000.0
            assert system.transport.in_flight() == 0


def test_a_drain_gives_up_when_the_window_closes_first(small, monkeypatch):
    """A frame posted to a stopped actor stays in flight, so the fleet
    never goes quiet and the drain reports False at the window."""
    monkeypatch.setattr(system_module, "WAIT_WINDOW_MS", 50.0)
    with ServeSystem(small) as system:
        system.supervisor.actors[3].stop()
        system.transport.post(Frame(0, 3, "trust_query", 0.0, b""))
        assert system._loop is not None
        assert system._loop.run_until_complete(system.drain()) is False
        assert system.transport.in_flight() == 1
        assert system.supervisor.restarts == 0
