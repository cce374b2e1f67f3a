"""Unit tests for the token + TTL discovery protocol (Fig. 4)."""

import numpy as np
import pytest

from repro.core.discovery import discover_agent_lists
from repro.errors import ConfigError
from repro.net.topology import power_law_topology, ring_lattice


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def run_discovery(topo, requestor, tokens, ttl, rng, lists=(), selfs=(), online=None):
    """``lists``: the nodes holding a trusted-agent list; ``selfs``: the
    reputation agents willing to offer themselves."""
    return discover_agent_lists(
        topo,
        requestor,
        tokens,
        ttl,
        rng=rng,
        has_list=lambda n: n in lists,
        self_offer=lambda n: n in selfs,
        online=online,
    )


def test_tokens_bound_replies(rng):
    """No matter how many nodes could reply, replies <= tokens."""
    topo = power_law_topology(200, 4, rng)
    selfs = range(200)
    out = run_discovery(topo, 0, tokens=5, ttl=4, rng=rng, selfs=selfs)
    assert len(out.responders) <= 5
    assert out.tokens_spent == len(out.responders)


def test_ttl_bounds_propagation(rng):
    """On a k=1 ring with TTL 2 only nodes within 2 hops can reply."""
    topo = ring_lattice(20, k=1)
    selfs = range(20)
    out = run_discovery(topo, 0, tokens=10, ttl=2, rng=rng, selfs=selfs)
    assert set(out.responders) <= {1, 2, 18, 19}


def test_list_holders_reply_with_lists(rng):
    topo = ring_lattice(10, k=1)
    out = run_discovery(topo, 0, tokens=4, ttl=3, rng=rng, lists={1})
    assert out.responders == [1]
    assert out.shared_list == [True]


def test_nodes_without_lists_forward_untouched(rng):
    """A listless, non-agent node consumes no token (Fig. 4's node C)."""
    topo = ring_lattice(10, k=1)
    selfs = {3}  # only node 3 can reply, 2 hops away
    out = run_discovery(topo, 0, tokens=2, ttl=4, rng=rng, selfs=selfs)
    assert 3 in out.responders


def test_reply_messages_charge_reverse_path(rng):
    topo = ring_lattice(10, k=1)
    selfs = {2}
    out = run_discovery(topo, 0, tokens=2, ttl=3, rng=rng, selfs=selfs)  # one each way
    assert out.responders == [2]
    assert out.depths == [2] and out.reply_messages == 2  # depth of node 2


def test_offline_nodes_swallow_tokens(rng):
    topo = ring_lattice(10, k=1)
    selfs = range(10)
    out = run_discovery(
        topo, 0, tokens=10, ttl=4, rng=rng, selfs=selfs,
        online=lambda n: n not in (1, 9),
    )
    assert out.responders == []  # both ring directions blocked


def test_each_node_replies_at_most_once(rng):
    topo = power_law_topology(80, 4, rng)
    selfs = range(80)
    out = run_discovery(topo, 0, tokens=20, ttl=4, rng=rng, selfs=selfs)
    assert len(out.responders) == len(set(out.responders))


def test_requestor_never_replies_to_itself(rng):
    topo = ring_lattice(6, k=2)
    selfs = range(6)
    out = run_discovery(topo, 0, tokens=10, ttl=3, rng=rng, selfs=selfs)
    assert out.responders and 0 not in out.responders


def test_replies_flag_list_or_self_offer(rng):
    """A list holder is never asked to offer itself; a listless agent is."""
    topo = ring_lattice(10, k=1)
    asked = []
    out = discover_agent_lists(
        topo, 0, 4, 2, rng=rng,
        has_list=lambda n: n == 1,
        self_offer=lambda n: asked.append(n) or n == 9,
    )
    assert dict(zip(out.responders, out.shared_list)) == {1: True, 9: False}
    assert 1 not in asked and 9 in asked


def test_total_messages_sum(rng):
    topo = ring_lattice(12, k=1)
    selfs = range(12)
    out = run_discovery(topo, 0, tokens=3, ttl=3, rng=rng, selfs=selfs)
    assert out.total_messages == out.request_messages + out.reply_messages


def test_validation(rng):
    topo = ring_lattice(5, k=1)
    with pytest.raises(ConfigError):
        run_discovery(topo, 0, tokens=0, ttl=3, rng=rng)
    with pytest.raises(ConfigError):
        run_discovery(topo, 0, tokens=3, ttl=0, rng=rng)
