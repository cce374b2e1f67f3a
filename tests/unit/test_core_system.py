"""Unit tests for the system orchestrator."""

import numpy as np
import pytest

from repro.core.config import HiRepConfig
from repro.core.system import HiRepSystem
from repro.net.churn import ChurnModel


@pytest.fixture
def cfg():
    return HiRepConfig(
        network_size=60,
        trusted_agents=10,
        refill_threshold=6,
        agents_queried=4,
        tokens=6,
        onion_relays=2,
        seed=21,
    )


def test_construction_wires_everything(cfg):
    system = HiRepSystem(cfg)
    assert len(system.peers) == 60
    assert len(system.agents) >= 1
    assert len(system.truth) == 60
    for ip in system.agents:
        assert system.network.node(ip).can_be_agent


def test_poor_agent_fraction_respected(cfg):
    system = HiRepSystem(cfg.with_(poor_agent_fraction=0.5))
    poor = len(system.poor_agent_ips())
    total = len(system.agents)
    assert abs(poor / total - 0.5) < 0.15


def test_truth_values_binary(cfg):
    system = HiRepSystem(cfg)
    assert set(np.unique(system.truth)) <= {0.0, 1.0}


def test_truth_oracle_by_node_id(cfg):
    system = HiRepSystem(cfg)
    for ip in (0, 5, 30):
        assert system.truth_by_id[system.truth_key(ip)] == system.truth[ip]


def test_bootstrap_fills_lists(cfg):
    system = HiRepSystem(cfg)
    system.bootstrap()
    sizes = [len(p.agent_list) for p in system.peers]
    assert min(sizes) >= 1
    assert np.mean(sizes) > cfg.trusted_agents * 0.5


def test_churn_free_run_never_rebuilds_the_online_list(cfg):
    """The O(N) online list is built once per liveness epoch, not per
    message: bootstrap plus 50 transactions hand out one list object."""
    system = HiRepSystem(cfg)
    online = system.network.online_nodes()
    system.bootstrap()
    system.run(50)
    assert system.network.online_nodes() is online
    assert online == list(range(cfg.network_size))


def test_bootstrap_idempotent(cfg):
    system = HiRepSystem(cfg)
    system.bootstrap()
    msgs = system.counter.total
    system.bootstrap()
    assert system.counter.total == msgs


def test_transaction_records_metrics(cfg):
    system = HiRepSystem(cfg)
    system.bootstrap()
    system.reset_metrics()
    out = system.run_transaction(requestor=0)
    assert out.requestor == 0
    assert out.provider != 0
    assert out.truth in (0.0, 1.0)
    assert out.trust_messages > 0
    assert len(system.mse) == 1
    assert len(system.response_times) == 1


def test_trust_traffic_formula(cfg):
    """Per-transaction trust traffic = 3 * c * (o + 1) with all agents up."""
    system = HiRepSystem(cfg)
    system.bootstrap()
    system.reset_metrics()
    out = system.run_transaction(requestor=0)
    expected = 3 * cfg.agents_queried * (cfg.onion_relays + 1)
    assert out.trust_messages == expected


def test_explicit_provider(cfg):
    system = HiRepSystem(cfg)
    system.bootstrap()
    out = system.run_transaction(requestor=0, provider=33)
    assert out.provider == 33


def test_run_batch(cfg):
    system = HiRepSystem(cfg)
    system.bootstrap()
    outs = system.run(5, requestor=0)
    assert len(outs) == 5
    assert system.transactions_run == 5


def test_reset_metrics(cfg):
    system = HiRepSystem(cfg)
    system.bootstrap()
    system.run(3, requestor=0)
    system.reset_metrics()
    assert system.counter.total == 0
    assert len(system.mse) == 0
    assert system.outcomes == []


def test_maintain_refills_short_list(cfg):
    system = HiRepSystem(cfg)
    system.bootstrap()
    peer = system.peers[0]
    # Empty the list below the refill threshold.
    for agent in peer.agent_list.agents()[: len(peer.agent_list) - 2]:
        peer.agent_list.remove(agent.node_id)
    assert peer.agent_list.needs_refill(cfg.refill_threshold)
    system.maintain(peer)
    assert len(peer.agent_list) > 2


def test_churn_applied_between_transactions(cfg):
    churn = ChurnModel(leave_prob=0.2, rejoin_prob=0.5)
    system = HiRepSystem(cfg, churn=churn)
    system.bootstrap()
    system.run(10, requestor=0)
    assert churn.stats.departures > 0


def test_good_poor_partition(cfg):
    system = HiRepSystem(cfg)
    good = set(system.good_agent_ips())
    poor = set(system.poor_agent_ips())
    assert good | poor == set(system.agents)
    assert good & poor == set()


def test_deterministic_given_seed(cfg):
    a = HiRepSystem(cfg)
    a.bootstrap()
    a.reset_metrics()
    outs_a = a.run(5, requestor=0)
    b = HiRepSystem(cfg)
    b.bootstrap()
    b.reset_metrics()
    outs_b = b.run(5, requestor=0)
    assert [o.estimate for o in outs_a] == [o.estimate for o in outs_b]
    assert [o.trust_messages for o in outs_a] == [o.trust_messages for o in outs_b]


def test_different_seed_differs(cfg):
    a = HiRepSystem(cfg)
    b = HiRepSystem(cfg.with_(seed=22))
    assert not np.array_equal(a.truth, b.truth) or a.topology.adjacency != b.topology.adjacency


def test_rsa_backend_end_to_end():
    """The full protocol must execute over real RSA."""
    cfg = HiRepConfig(
        network_size=25,
        trusted_agents=4,
        refill_threshold=2,
        agents_queried=2,
        tokens=4,
        onion_relays=1,
        crypto_backend="rsa",
        seed=5,
    )
    system = HiRepSystem(cfg)
    system.bootstrap()
    system.reset_metrics()
    out = system.run_transaction(requestor=0)
    assert out.answered > 0
    assert 0.0 <= out.estimate <= 1.0
