"""Parity harness: the array kernel reproduces the object kernel.

``hirep-array`` (:mod:`repro.vector`) and ``hirep`` (:mod:`repro.core`)
are two execution backends for the same protocol, consuming the same RNG
streams in the same order.  This suite pins the strongest property we
can state — **strict parity**: per-category message counters are equal as
integers, final trusted-agent state is equal row for row (ip, expertise,
update count), and per-transaction estimates agree to float tolerance.

What is *excluded* from parity, by design (see ``docs/scaling.md``):

* ``response_time_ms`` — the array kernel computes it analytically from
  hop counts and the latency model's mean instead of replaying the DES
  schedule, so it is compared only for finiteness;
* seeded bootstrap (``bootstrap_mode="seeded"``) — a deliberate
  protocol-bypassing fast path for 10^5+ peers, never used here.

Cells sweep seeds × poor-agent fraction × churn; churn parity holds
strictly because handshakes consume a fixed number of relay-stream draws
regardless of delivery order.  The paper-scale N=1000 cell is gated on
``HIREP_PARITY_PAPER=1`` (it costs a few seconds); the CI ``kernel-sweep``
job sets it.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro import build_system
from repro.net.churn import ChurnModel
from repro.workloads.scenarios import default_config

SMALL_N = 80
SMALL_TRANSACTIONS = 40


def small_config(seed: int, poor_fraction: float):
    return default_config(network_size=SMALL_N, seed=seed).with_(
        trusted_agents=10,
        refill_threshold=6,
        agents_queried=4,
        onion_relays=2,
        poor_agent_fraction=poor_fraction,
    )


def object_state(system) -> dict:
    """Final trusted-list rows of the object kernel, per peer."""
    rows = {}
    for peer in system.peers:
        rows[peer.ip] = sorted(
            (a.entry.agent_ip, a.expertise.value, a.expertise.updates)
            for a in peer.agent_list.agents()
        )
    return rows


def array_state(system) -> dict:
    """Final trusted rows of the array kernel, per peer."""
    st = system.state
    rows = {}
    for p in range(system.config.network_size):
        m = int(st.live_len[p])
        rows[p] = sorted(
            (int(st.live_ip[p, i]), float(st.live_val[p, i]), int(st.live_upd[p, i]))
            for i in range(m)
        )
    return rows


def run_pair(cfg, transactions: int, churn_rate: float | None = None):
    systems = []
    for name in ("hirep", "hirep-array"):
        churn = (
            ChurnModel(leave_prob=churn_rate, rejoin_prob=0.4)
            if churn_rate
            else None
        )
        system = build_system(name, cfg, churn=churn)
        system.run(transactions)
        systems.append(system)
    return systems


def assert_strict_parity(obj, arr, transactions: int) -> None:
    # Message accounting: identical category-by-category, as integers.
    assert dict(obj.counter.by_category) == dict(arr.counter.by_category)
    assert obj.counter.total == arr.counter.total

    # Per-transaction outcomes: same pairs, same traffic, same estimates.
    assert len(obj.outcomes) == len(arr.outcomes) == transactions
    for o, a in zip(obj.outcomes, arr.outcomes):
        assert (o.requestor, o.provider) == (a.requestor, a.provider)
        assert (o.answered, o.asked) == (a.answered, a.asked)
        assert o.trust_messages == a.trust_messages
        assert o.total_messages == a.total_messages
        assert o.estimate == pytest.approx(a.estimate, abs=1e-9)
        # Analytic vs DES response time: parity is not claimed, but an
        # answered query must produce a usable (finite, non-negative)
        # figure; unanswered queries are NaN in both kernels.
        if a.answered:
            assert math.isfinite(a.response_time_ms) and a.response_time_ms >= 0.0
        else:
            assert math.isnan(a.response_time_ms) == math.isnan(o.response_time_ms)

    # Final trust state: row-for-row equality of every peer's list.
    assert object_state(obj) == array_state(arr)


@pytest.mark.parametrize("seed", [99, 7])
@pytest.mark.parametrize("poor_fraction", [0.10, 0.35])
def test_parity_no_churn(seed: int, poor_fraction: float) -> None:
    cfg = small_config(seed, poor_fraction)
    obj, arr = run_pair(cfg, SMALL_TRANSACTIONS)
    assert_strict_parity(obj, arr, SMALL_TRANSACTIONS)


@pytest.mark.parametrize("seed", [99, 7])
@pytest.mark.parametrize("churn_rate", [0.05, 0.15])
def test_parity_under_churn(seed: int, churn_rate: float) -> None:
    cfg = small_config(seed, 0.10)
    obj, arr = run_pair(cfg, SMALL_TRANSACTIONS, churn_rate=churn_rate)
    assert_strict_parity(obj, arr, SMALL_TRANSACTIONS)
    assert obj.churn.stats.departures == arr.churn.stats.departures
    assert obj.churn.stats.rejoins == arr.churn.stats.rejoins


def test_parity_zero_relays() -> None:
    """Degenerate onion (no relays)."""
    cfg = small_config(99, 0.10).with_(onion_relays=0)
    obj, arr = run_pair(cfg, SMALL_TRANSACTIONS)
    assert_strict_parity(obj, arr, SMALL_TRANSACTIONS)


def test_parity_with_lists_served_through_the_discovery_hook() -> None:
    """Every other node answers discovery through ``discovery_list_hook``
    with a faithful copy of its own list.  The object kernel then converts
    hook-built entries to columns instead of reading the list's own, and
    must still land where the (hook-less) array kernel does — under churn,
    so rediscovery adopts the copies' onion snapshots too."""
    cfg = small_config(7, 0.10)
    obj = build_system("hirep", cfg, churn=ChurnModel(leave_prob=0.05, rejoin_prob=0.4))
    arr = build_system(
        "hirep-array", cfg, churn=ChurnModel(leave_prob=0.05, rejoin_prob=0.4)
    )
    served = []

    def hook(node: int):
        if node % 2:
            return None
        agent_list = obj.peers[node].agent_list
        served.append(node)
        return [agent_list.shared_entry(nid) for nid in agent_list.columns()[0]]

    obj.discovery_list_hook = hook
    obj.run(SMALL_TRANSACTIONS)
    arr.run(SMALL_TRANSACTIONS)
    assert served
    assert_strict_parity(obj, arr, SMALL_TRANSACTIONS)


@pytest.mark.parametrize("seed", [99, 7])
def test_parity_when_discovery_adopts_stale_snapshots(seed: int) -> None:
    """``refill_threshold`` = C sends a peer back to discovery for every
    row it loses, under churn heavy enough that responders' rows still name
    onions their owners have since rebuilt.  A winner's snapshot is the
    responder's — stale, dead relays and all — not the owner's current
    onion, and the hop bill of every later send through it shows which one
    the array kernel stored."""
    transactions = 120
    cfg = small_config(seed, 0.10).with_(refill_threshold=10)
    obj, arr = (
        build_system(name, cfg, churn=ChurnModel(leave_prob=0.15, rejoin_prob=0.4))
        for name in ("hirep", "hirep-array")
    )
    stale = []
    add_many = arr.state.add_many

    def spy(p, hosts, value, oids=None):
        if oids is not None:
            stale.append(int(np.count_nonzero(oids != arr._own_oid[hosts])))
        return add_many(p, hosts, value, oids)

    arr.state.add_many = spy
    obj.run(transactions)
    arr.run(transactions)
    assert sum(stale) >= 10  # adopted ids that were not the owner's current one
    assert_strict_parity(obj, arr, transactions)


def _per_node_churn_step(churn, network, rng, extra_protected=()) -> None:
    """``ChurnModel.step`` as it was before both networks shared one
    vectorised ``apply_churn``: one draw vector, then a Python loop flipping
    node by node through ``set_online``.  Kept here as the reference."""
    if churn.leave_prob == 0 and churn.rejoin_prob == 0:
        return
    extra = set(extra_protected)
    draws = rng.random(network.n)
    for idx in range(network.n):
        if idx in churn.protected or idx in extra:
            continue
        if network.is_online(idx):
            if draws[idx] < churn.leave_prob:
                network.set_online(idx, False)
                churn.stats.departures += 1
        elif draws[idx] < churn.rejoin_prob:
            network.set_online(idx, True)
            churn.stats.rejoins += 1


def test_churn_stats_equivalence_on_masks() -> None:
    """The one vectorised churn step flips exactly what the per-node loop
    did, on both networks: equal trajectories, equal statistics, and the
    same access-link horizons cleared on the DES network."""
    from repro.net.topology import random_topology
    from repro.net.network import P2PNetwork
    from repro.vector.network import ArrayNetwork

    topo = random_topology(60, avg_degree=4.0, rng=np.random.default_rng(5))
    ref_net = P2PNetwork(topo, np.random.default_rng(11))
    obj_net = P2PNetwork(topo, np.random.default_rng(11))
    arr_net = ArrayNetwork(topo, np.random.default_rng(11))
    churns = [
        ChurnModel(leave_prob=0.2, rejoin_prob=0.3, protected={0}) for _ in range(3)
    ]
    rngs = [np.random.default_rng(42) for _ in range(3)]
    for _ in range(30):
        # Every online node holds a horizon going into the step.
        horizons = dict.fromkeys(ref_net.online_nodes(), 1.0)
        ref_net._link_free_at = dict(horizons)
        obj_net._link_free_at = dict(horizons)
        _per_node_churn_step(churns[0], ref_net, rngs[0], extra_protected={3})
        churns[1].step(obj_net, rngs[1], extra_protected={3})
        churns[2].step(arr_net, rngs[2], extra_protected={3})
        assert ref_net.online_nodes() == obj_net.online_nodes() == arr_net.online_nodes()
        assert ref_net._link_free_at == obj_net._link_free_at
        assert set(obj_net._link_free_at) == set(horizons) & set(obj_net.online_nodes())
    assert churns[0].stats == churns[1].stats == churns[2].stats
    assert churns[0].stats.departures > 0 and churns[0].stats.rejoins > 0
    states = [rng.bit_generator.state["state"] for rng in rngs]
    assert states[0] == states[1] == states[2]


@pytest.mark.skipif(
    os.environ.get("HIREP_PARITY_PAPER") != "1",
    reason="paper-scale parity cell; set HIREP_PARITY_PAPER=1",
)
def test_parity_paper_defaults_n1000() -> None:
    """Table 1 defaults at N=1000 — the configuration the figures use."""
    cfg = default_config(network_size=1000, seed=2006)
    obj, arr = run_pair(cfg, 25)
    assert_strict_parity(obj, arr, 25)
