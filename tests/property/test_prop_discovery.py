"""Property-based tests for the token/TTL discovery protocol."""

from collections import deque

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


def oracle_flood(topology, requestor, tokens, ttl, *, rng, has_list, self_offer, online):
    """The pre-rewrite flood: a ``fan_out`` closure per round and a
    ``_split_tokens`` list per fan-out.  Kept as the oracle the one-loop
    flood must match reply for reply and draw for draw."""

    def split_tokens(carry, ways):
        base, extra = divmod(carry, ways)
        shares = [base] * ways
        if extra:
            for i in rng.choice(ways, size=extra, replace=False):
                shares[int(i)] += 1
        return shares

    responders, depths, shared_list = [], [], []
    requests = 0
    replied = set()
    queue = deque()

    def fan_out(node, carry, depth, came_from):
        nonlocal requests
        if carry <= 0 or depth >= ttl:
            return
        nbrs = [n for n in topology.neighbors(node) if n != came_from]
        if not nbrs:
            return
        for nbr, share in zip(nbrs, split_tokens(carry, len(nbrs))):
            if share <= 0:
                continue
            requests += 1
            if not online(nbr):
                continue
            queue.append((nbr, share, depth + 1, node))

    fan_out(requestor, tokens, 0, -1)
    while queue:
        node, carry, depth, came_from = queue.popleft()
        if node == requestor:
            continue
        if node not in replied:
            shares_list = bool(has_list(node))
            if shares_list or self_offer(node):
                responders.append(node)
                depths.append(depth)
                shared_list.append(shares_list)
                replied.add(node)
                carry -= 1
        fan_out(node, carry, depth, came_from)
    return responders, depths, shared_list, requests


@given(
    n=st.integers(min_value=9, max_value=60),
    degree=st.integers(min_value=1, max_value=16),
    requestor=st.integers(min_value=0, max_value=59),
    tokens=st.integers(min_value=1, max_value=30),
    ttl=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
    roles=st.lists(st.sampled_from(["list", "agent", "both", "offline", "plain"]), max_size=60),
)
@settings(max_examples=300, deadline=None)
def test_flood_matches_fan_out_oracle(n, degree, requestor, tokens, ttl, seed, roles):
    topo = power_law_topology(n, degree, np.random.default_rng(seed))
    requestor %= n
    role = dict(enumerate(roles))
    lists = {i for i, r in role.items() if r in ("list", "both")}
    agents = {i for i, r in role.items() if r in ("agent", "both")}
    offline = {i for i, r in role.items() if r == "offline" and i != requestor}

    def run(flood):
        rng = np.random.default_rng(seed)
        calls = []  # every callback in flood order: where self_offer draws

        def has_list(node):
            calls.append(("list", node))
            return node in lists

        def self_offer(node):
            calls.append(("offer", node))
            return node in agents

        out = flood(
            topo, requestor, tokens, ttl, rng=rng, has_list=has_list,
            self_offer=self_offer, online=lambda node: node not in offline,
        )
        return out, calls, rng.bit_generator.state

    out, calls, state = run(discover_agent_lists)
    expected, oracle_calls, oracle_state = run(oracle_flood)
    assert (out.responders, out.depths, out.shared_list, out.request_messages) == expected
    assert calls == oracle_calls
    assert state == oracle_state
