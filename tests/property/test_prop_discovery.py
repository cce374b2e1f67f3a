"""Property-based tests for the token/TTL discovery protocol."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.discovery import discover_agent_lists
from repro.net.topology import power_law_topology


@given(
    n=st.integers(min_value=10, max_value=80),
    tokens=st.integers(min_value=1, max_value=20),
    ttl=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
    agent_density=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_discovery_invariants(n, tokens, ttl, seed, agent_density):
    rng = np.random.default_rng(seed)
    topo = power_law_topology(n, 4, rng)
    agents = {i for i in range(n) if rng.random() < agent_density}
    out = discover_agent_lists(
        topo,
        0,
        tokens,
        ttl,
        rng=rng,
        has_list=lambda node: False,
        self_offer=lambda node: node in agents,
    )
    # Replies never exceed the token budget (the protocol's whole point).
    assert len(out.responders) <= tokens
    assert out.tokens_spent == len(out.responders)
    assert not any(out.shared_list)
    # Each node replies at most once; the requestor never replies.
    repliers = out.responders
    assert len(repliers) == len(set(repliers))
    assert 0 not in repliers
    # Only advertised agents reply in this setup.
    assert set(repliers) <= agents
    # Traffic is bounded: each token travels at most ttl request hops.
    assert out.request_messages <= tokens * ttl
    assert out.reply_messages == sum(out.depths) <= len(repliers) * ttl
    assert out.total_messages == out.request_messages + out.reply_messages
