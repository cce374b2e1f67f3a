"""Unit tests for HiRepPeer behaviour inside a small live system."""

import pytest

from repro.core.config import HiRepConfig
from repro.core.system import HiRepSystem
from repro.errors import NoTrustedAgentsError, ProtocolError


@pytest.fixture
def system():
    cfg = HiRepConfig(
        network_size=60,
        trusted_agents=10,
        refill_threshold=6,
        agents_queried=4,
        tokens=6,
        onion_relays=2,
        seed=7,
    )
    s = HiRepSystem(cfg)
    s.bootstrap()
    return s


def test_query_without_agents_raises():
    cfg = HiRepConfig(network_size=60, seed=7)
    system = HiRepSystem(cfg)  # no bootstrap: empty lists
    system._bootstrapped = True
    peer = system.peers[0]
    with pytest.raises(NoTrustedAgentsError):
        peer.start_query(system.truth_key(1))


def test_double_start_query_rejected(system):
    peer = system.peers[0]
    peer.start_query(system.truth_key(1))
    with pytest.raises(ProtocolError):
        peer.start_query(system.truth_key(2))
    system.network.run()
    peer.finish_query()


def test_finish_without_start_rejected(system):
    with pytest.raises(ProtocolError):
        system.peers[0].finish_query()


def test_query_collects_responses(system):
    peer = system.peers[0]
    agents = peer.start_query(system.truth_key(1))
    system.network.run()
    result = peer.finish_query()
    assert result.answered > 0
    assert result.asked == len([a for a in agents if a.entry.agent_onion is not None])
    assert 0.0 <= result.estimate <= 1.0
    assert result.response_time_ms > 0


def test_estimate_ignores_unproven_when_trained(system):
    """After training, an untrained poor agent's value has zero weight."""
    for _ in range(10):
        system.run_transaction(requestor=0)
    # All queried agents now have track record; estimate should track truth.
    out = system.run_transaction(requestor=0)
    assert abs(out.estimate - out.truth) < 0.45


def test_onion_rebuilt_when_relay_dies(system):
    peer = system.peers[0]
    onion1 = peer.ensure_onion()
    assert peer._relay_ips  # has relays
    dead = peer._relay_ips[0]
    system.network.set_online(dead, False)
    onion2 = peer.ensure_onion()
    assert onion2.seq > onion1.seq
    assert dead not in peer._relay_ips


def test_onion_stable_while_relays_alive(system):
    peer = system.peers[0]
    onion1 = peer.ensure_onion()
    onion2 = peer.ensure_onion()
    assert onion1 is onion2


def test_fresh_onion_bumps_seq_same_relays(system):
    peer = system.peers[0]
    peer.ensure_onion()
    relays_before = list(peer._relay_ips)
    fresh = peer.fresh_onion()
    assert fresh.seq == 2
    assert peer._relay_ips == relays_before


def test_settle_updates_expertise_and_reports(system):
    peer = system.peers[0]
    peer.start_query(system.truth_key(1))
    system.network.run()
    result = peer.finish_query()
    truth = float(system.truth[1])
    reports = peer.settle_transaction(result, truth)
    assert len(reports) == len(result.responses) or len(reports) <= result.answered
    system.network.run()
    # Reports landed at agents that served the query.
    delivered = sum(
        a.stats.reports_accepted for a in system.agents.values()
    )
    assert delivered >= 1


def test_settle_evicts_inconsistent_agents(system):
    peer = system.peers[0]
    peer.start_query(system.truth_key(1))
    system.network.run()
    result = peer.finish_query()
    truth = float(system.truth[1])
    # Force every response to look maximally wrong: outcome inverted.
    fake = [(aid, 1.0 - truth) for aid, _v in result.responses]
    result.responses[:] = fake
    before = len(peer.agent_list)
    peer.settle_transaction(result, truth, report=False)
    peer.settle_transaction_noop = None
    # One wrong evaluation at alpha=0.5 -> expertise 0.5; threshold 0.4
    # keeps them, but a second strike would evict. Run the same trick again.
    peer.start_query(system.truth_key(1))
    system.network.run()
    result2 = peer.finish_query()
    result2.responses[:] = [(aid, 1.0 - truth) for aid, _v in result2.responses]
    peer.settle_transaction(result2, truth, report=False)
    assert len(peer.agent_list) <= before


def test_probe_backups_restores_online_agents(system):
    peer = system.peers[0]
    agents = peer.agent_list.agents()
    victim = agents[0]
    peer.agent_list.park_offline(victim.node_id)
    restored = peer.probe_backups()
    assert restored == 1
    assert victim.node_id in peer.agent_list


def test_probe_backups_drops_dead_agents(system):
    peer = system.peers[0]
    victim = peer.agent_list.agents()[0]
    ip = victim.entry.agent_ip
    peer.agent_list.park_offline(victim.node_id)
    system.network.set_online(ip, False)
    restored = peer.probe_backups()
    assert restored == 0
    assert peer.agent_list.backup_agents() == []


def test_adopt_entries_skips_self(system):
    peer = system.peers[0]
    entry = system.self_entry_for(list(system.agents)[0])
    own = system.self_entry_for(peer.ip) if peer.ip in system.agents else None
    peer.adopt_entries([e for e in [entry, own] if e is not None])
    # Whatever happens, the peer never adds itself.
    assert peer.node_id not in peer.agent_list
