"""Unit tests for the serve plane: engine, fleet lifecycle, registry."""

import asyncio
import math

import pytest

from repro.core.config import HiRepConfig
from repro.core.registry import build_system, system_names
from repro.errors import ConfigError
from repro.net.churn import ChurnModel
from repro.serve.engine import WallEngine
from repro.serve.system import ServeSystem


@pytest.fixture
def small():
    return HiRepConfig(network_size=10, seed=31)


def test_wall_engine_advances_monotonically():
    engine = WallEngine()
    a = engine.now
    b = engine.now
    assert 0.0 <= a <= b


def test_wall_engine_schedules_on_running_loop():
    engine = WallEngine()
    fired = []

    async def scenario():
        engine.schedule_in(1.0, lambda: fired.append(engine.now))
        await asyncio.sleep(0.05)

    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(scenario())
    finally:
        loop.close()
    assert len(fired) == 1
    assert engine.events_run == 1


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
        snapshot = system.telemetry.registry.collect()
        assert snapshot["transactions"] == 3.0
        assert snapshot["serve.frames_posted"] > 0.0
        assert snapshot["serve.frames_in_flight"] == 0.0


def test_explicit_pair_matches_request(small):
    with ServeSystem(small) as system:
        outcome = system.run_transaction(3, 7)
        assert (outcome.requestor, outcome.provider) == (3, 7)
