"""One generated differential test for the three hiREP executors.

``hirep``, ``hirep-array`` and ``serve`` (serialized, in-process) run one
protocol on the same RNG streams.  A draw (config, churn, message loss,
query timeout, transactions, requestor) runs on every executor that does
not refuse it with a ``ConfigError`` at build or ``FaultPlane.install``;
the refusals must be the registry's :data:`~repro.core.registry.CAPABILITIES`.
Every pair that ran it must agree on each outcome (estimates to 1e-9:
votes are summed in arrival order; ``response_time_ms`` is not compared),
the counters, churn statistics, agent population and final trusted rows,
and each executor obeys the §4.1 laws (:func:`run_case`).  A failing draw
prints as one dict that ``check(case)`` replays; the hand-picked cells that
``check`` runs by name are in tests/integration/test_kernel_parity.py.  The example budget is a
``tests/conftest.py`` profile picked by ``HIREP_EXECUTORS_PROFILE``;
``HIREP_PARITY_PAPER=1`` adds the Table 1 cell (N = 1 000) as an example.
"""

from __future__ import annotations

import math
import os
from itertools import combinations
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import build_system
from repro.core.config import HiRepConfig
from repro.core.registry import CAPABILITIES
from repro.errors import ConfigError
from repro.net.churn import ChurnModel
from repro.net.faults import FaultPlane, MessageLoss
from repro.net.messages import Category

EXECUTORS = tuple(CAPABILITIES)

#: The three legs of a trust transaction, in protocol order.
LEGS = (Category.TRUST_QUERY, Category.TRUST_RESPONSE, Category.TRANSACTION_REPORT)

configs = st.fixed_dictionaries(
    {
        "network_size": st.integers(min_value=20, max_value=90),
        "avg_neighbors": st.sampled_from([2.0, 3.0, 4.0, 6.0]),
        "onion_relays": st.integers(min_value=0, max_value=6),
        "trusted_agents": st.integers(min_value=2, max_value=20),
        "agents_queried": st.integers(min_value=1, max_value=8),
        "tokens": st.integers(min_value=1, max_value=12),
        "ttl": st.integers(min_value=1, max_value=5),
        "expertise_alpha": st.sampled_from([0.1, 0.5, 0.9]),
        "eviction_threshold": st.sampled_from([0.0, 0.4, 0.5, 0.8]),
        "initial_expertise": st.sampled_from([1.0, 0.3, 0.0]),
        "poor_agent_fraction": st.sampled_from([0.0, 0.3, 0.9]),
        "untrusted_peer_fraction": st.sampled_from([0.1, 0.5, 0.9]),
        "backup_cache_size": st.integers(min_value=0, max_value=10),
        "topology_kind": st.sampled_from(["power_law", "random", "small_world"]),
        "query_timeout_ms": st.sampled_from([None, 60_000.0]),
        "seed": st.integers(min_value=0, max_value=2**31),
    }
).map(lambda c: {**c, "refill_threshold": max(1, c["trusted_agents"] // 2)})

cases = st.fixed_dictionaries(
    {
        "config": configs,
        "churn": st.none()
        | st.tuples(st.sampled_from([0.02, 0.05, 0.15]), st.sampled_from([0.2, 0.4])),
        "loss": st.none() | st.sampled_from([0.05, 0.2]),
        "transactions": st.integers(min_value=10, max_value=60),
        "requestor": st.sampled_from([None, 0]),
    }
)


def case(config, churn=None, transactions=40):
    return dict(config=config, churn=churn, loss=None, transactions=transactions, requestor=None)


#: A parity cell's config: 80 peers, C = 10, four agents asked, two relays.
PARITY = dict(
    network_size=80, trusted_agents=10, refill_threshold=6, agents_queried=4, onion_relays=2
)


def cell(seed, *, poor=0.10, churn=None, transactions=40, **config):
    config = {**PARITY, "poor_agent_fraction": poor, "seed": seed, **config}
    return case(config, churn, transactions)


def stale_cell(seed):
    """refill_threshold = C sends a peer back to discovery for every row it
    loses, under churn heavy enough that responders' rows still name onions
    their owners have since rebuilt."""
    return cell(seed, churn=(0.15, 0.4), transactions=120, refill_threshold=10)


#: Examples on top of the draws.  The nine hand-picked parity cells (no
#: churn, churn, zero relays) run ``check`` under their own names in
#: tests/integration/test_kernel_parity.py.
CELLS = [
    *(stale_cell(seed) for seed in (99, 7)),
    # Settlement's boundaries.  θ = 0.5 is an expertise one inconsistent
    # answer leaves at α = 0.5; only a zero initial expertise makes rows a
    # θ = 0 keeps but parking must drop; only an initial expertise under θ
    # lets an offline agent be both evictable and parkable.
    cell(99, eviction_threshold=0.5),
    cell(7, churn=(0.15, 0.4), initial_expertise=0.0, eviction_threshold=0.0),
    cell(7, churn=(0.15, 0.4), initial_expertise=0.3),
    # An answering agent evicted at settlement gets no report: transaction
    # 15 costs 10 + 10 + 8 trust messages, not 3·5·2 = 30.
    case(dict(network_size=28, topology_kind="small_world", trusted_agents=6, refill_threshold=3,
              agents_queried=5, onion_relays=1, seed=502582), transactions=20),
]
if os.environ.get("HIREP_PARITY_PAPER") == "1":
    CELLS.append(case(dict(network_size=1000, seed=2006), transactions=25))


def launch(name: str, case):
    """Build ``case`` on executor ``name``; None when it is refused."""
    cfg = HiRepConfig(**case["config"])
    churn = ChurnModel(*case["churn"]) if case["churn"] else None
    try:
        system = build_system(name, cfg, churn=churn)
        if case["loss"] is not None:
            plane = FaultPlane([MessageLoss(case["loss"])], seed=cfg.seed + 17)
            plane.install(system.network)
    except ConfigError:
        return None
    return system


def run_case(system, case) -> None:
    """Run the draw, checking the §4.1 laws after each transaction.  With every
    node online and no fault, a request or response costs (o+1) hops per asked
    or answering agent, a report (o+1) per answerer that survives settlement."""
    cfg = system.config
    relays = cfg.onion_relays + 1
    # A retry round re-sends a request to each silent agent, which may answer.
    legs = 3 + 2 * (cfg.max_query_retries if cfg.query_timeout_ms else 0)
    counts = system.counter.by_category
    for _ in range(case["transactions"]):
        before = [counts.get(leg, 0) for leg in LEGS]
        out = system.run_transaction(case["requestor"])
        queries, responses, reports = (counts.get(leg, 0) - b for leg, b in zip(LEGS, before))
        assert 0.0 <= out.estimate <= 1.0
        assert out.truth in (0.0, 1.0)
        assert 0 <= out.trust_messages <= out.total_messages
        assert out.trust_messages == queries + responses + reports
        assert out.answered <= out.asked
        if out.answered:
            assert out.trust_messages <= legs * out.asked * relays
            assert 0.0 <= out.response_time_ms < math.inf
        elif not hasattr(system, "transport"):  # the fleet reports wall time
            assert math.isnan(out.response_time_ms)
        if case["loss"] is None and not system.network.any_offline:
            assert queries == out.asked * relays
            assert responses == out.answered * relays
            assert reports % relays == 0 and reports <= out.answered * relays


def list_rows(system) -> list:
    """Every peer's final trusted rows: (agent ip, expertise, updates)."""
    if system.peers:
        return [
            sorted((a.entry.agent_ip, a.expertise.value, a.expertise.updates) for a in agents)
            for agents in (p.agent_list.agents() for p in system.peers)
        ]
    state = system.state
    cols = (state.live_ip, state.live_val, state.live_upd)
    lens = state.live_len.tolist()
    return [sorted(zip(*(col[p, :n].tolist() for col in cols))) for p, n in enumerate(lens)]


outcome_key = attrgetter(
    "index", "requestor", "provider", "answered", "asked", "trust_messages", "total_messages",
    "truth",
)


def assert_agree(a, b) -> None:
    """Executors ``a`` and ``b`` ran the same draw the same way."""
    assert list(map(outcome_key, a.outcomes)) == list(map(outcome_key, b.outcomes))
    for x, y in zip(a.outcomes, b.outcomes):
        assert x.estimate == pytest.approx(y.estimate, abs=1e-9)
    assert dict(a.counter.by_category) == dict(b.counter.by_category)
    assert a.agent_quality == b.agent_quality
    assert (a.churn and a.churn.stats) == (b.churn and b.churn.stats)
    assert list_rows(a) == list_rows(b)


def check(case) -> dict:
    """Run ``case`` on every executor that accepts it; require agreement.
    Returns the systems that ran it, by executor name."""
    used = {"churn": case["churn"], "fault": case["loss"],
            "timeout": case["config"].get("query_timeout_ms")}
    needs = {name for name, value in used.items() if value is not None}
    ran = {}
    try:
        for name in EXECUTORS:
            system = launch(name, case)
            assert (system is None) == bool(needs & CAPABILITIES[name]), name
            if system is not None:
                ran[name] = system
                run_case(system, case)
        for a, b in combinations(ran.values(), 2):
            assert_agree(a, b)
        return ran
    finally:
        if "serve" in ran:
            ran["serve"].down()


def with_cells(test):
    for one in reversed(CELLS):
        test = example(case=one)(test)
    return test


@settings(settings.get_profile(os.environ.get("HIREP_EXECUTORS_PROFILE", "executors")))
@given(case=cases)
@with_cells
def test_executors_agree_on_every_draw(case):
    check(case)


def test_parity_with_lists_served_through_the_discovery_hook() -> None:
    """Every other node answers discovery through ``discovery_list_hook``
    with a faithful copy of its own list.  The object kernel then converts
    hook-built entries to columns instead of reading the list's own, and
    must still land where the (hook-less) array kernel does — under churn,
    so rediscovery adopts the copies' onion snapshots too."""
    case = cell(7, churn=(0.05, 0.4))
    obj, arr = (launch(name, case) for name in ("hirep", "hirep-array"))
    served = []

    def hook(node: int):
        if node % 2:
            return None
        agent_list = obj.peers[node].agent_list
        served.append(node)
        return [agent_list.shared_entry(nid) for nid in agent_list.columns()[0]]

    obj.discovery_list_hook = hook
    run_case(obj, case)
    run_case(arr, case)
    assert served
    assert_agree(obj, arr)


@pytest.mark.parametrize("seed", [99, 7])
def test_parity_when_discovery_adopts_stale_snapshots(seed: int) -> None:
    """The stale-snapshot cells do adopt a responder's snapshot (stale, dead
    relays and all) over the owner's current onion, at least ten times."""
    case = stale_cell(seed)
    arr = launch("hirep-array", case)
    stale = []
    add_many = arr.state.add_many

    def spy(p, hosts, value, oids=None):
        if oids is not None:
            stale.append(int(np.count_nonzero(oids != arr._own_oid[hosts])))
        return add_many(p, hosts, value, oids)

    arr.state.add_many = spy
    run_case(arr, case)
    assert sum(stale) >= 10  # adopted ids that were not the owner's current one
