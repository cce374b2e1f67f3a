"""ProtocolDispatcher: role scoping, MRO routing, the dispatch tap."""

from __future__ import annotations

import pytest

from repro.core.dispatch import ProtocolDispatcher
from repro.errors import ConfigError


class Ping:
    pass


class FancyPing(Ping):
    pass


class Pong:
    pass


def make_dispatcher() -> tuple[ProtocolDispatcher, list]:
    calls: list[tuple] = []
    d = ProtocolDispatcher()
    d.define_role("agent", lambda ip: ip % 2 == 0)  # even nodes are agents
    d.define_role("peer", lambda ip: True)
    d.register("agent", Ping, lambda ip, m, t: calls.append(("agent-ping", ip)))
    d.register("peer", Pong, lambda ip, m, t: calls.append(("peer-pong", ip)))
    return d, calls


def test_routes_by_role_and_type():
    d, calls = make_dispatcher()
    assert d.dispatch(2, Ping(), 0.0) is True
    assert d.dispatch(1, Pong(), 0.0) is True
    assert calls == [("agent-ping", 2), ("peer-pong", 1)]


def test_role_scoping_drops_agent_traffic_at_non_agents():
    d, calls = make_dispatcher()
    assert d.dispatch(3, Ping(), 0.0) is False  # odd node: not an agent
    assert calls == []


def test_mro_walk_routes_subclasses():
    d, calls = make_dispatcher()
    assert d.dispatch(4, FancyPing(), 0.0) is True
    assert calls == [("agent-ping", 4)]


def test_unroutable_message_drops():
    d, calls = make_dispatcher()
    assert d.dispatch(2, object(), 0.0) is False
    assert calls == []


def test_endpoint_adapts_to_router_signature():
    d, calls = make_dispatcher()
    endpoint = d.endpoint(6)
    endpoint(Ping(), 12.5)
    assert calls == [("agent-ping", 6)]


def test_tracer_sees_handled_and_dropped():
    """Whatever traces dispatches is now a plain callable in the tap slot."""
    d, _calls = make_dispatcher()
    assert d.tap is None
    seen: list[tuple] = []
    d.tap = lambda ip, message, sent_at, role: seen.append((ip, sent_at, role))
    d.dispatch(2, Ping(), 1.0)
    d.dispatch(3, Ping(), 2.0)
    # role is the handler's role; None means no handler ran (dropped)
    assert seen == [(2, 1.0, "agent"), (3, 2.0, None)]


def test_duplicate_registration_rejected():
    d, _calls = make_dispatcher()
    with pytest.raises(ConfigError, match="already routed"):
        d.register("agent", Ping, lambda ip, m, t: None)
    with pytest.raises(ConfigError, match="already defined"):
        d.define_role("agent", lambda ip: True)
    with pytest.raises(ConfigError, match="unknown role"):
        d.register("ghost", Pong, lambda ip, m, t: None)


def test_routes_lists_registration_order():
    d, _calls = make_dispatcher()
    assert d.routes() == [("agent", Ping), ("peer", Pong)]


def test_hirep_system_tracer_observes_protocol_messages():
    from repro import HiRepConfig, HiRepSystem
    from repro.core.messages import TrustValueRequest, TrustValueResponse

    system = HiRepSystem(HiRepConfig(network_size=40, seed=3))
    handled: list[type] = []
    system.dispatcher.tap = lambda ip, message, sent_at, role: (
        role is not None and handled.append(type(message))
    )
    system.run(3, requestor=0)
    assert TrustValueRequest in handled
    assert TrustValueResponse in handled
