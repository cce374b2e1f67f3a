"""Unit tests for the trusted-agent list and backup cache (§3.4.3)."""

import numpy as np
import pytest

from repro.core.agent_list import TrustedAgentList
from repro.core.messages import AgentListEntry
from repro.crypto.backend import PublicKey
from repro.errors import ConfigError


def entry(node: int, weight: float = 1.0) -> AgentListEntry:
    return AgentListEntry(
        weight=weight,
        agent_node_id=bytes([node]),
        agent_onion=None,
        agent_sp=PublicKey("simulated", bytes([node])),
        agent_ip=node,
    )


@pytest.fixture
def lst():
    return TrustedAgentList(
        capacity=5, alpha=0.5, eviction_threshold=0.4, backup_capacity=3
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_add_and_len(lst):
    assert lst.add(entry(1))
    assert lst.add(entry(2))
    assert len(lst) == 2
    assert bytes([1]) in lst


def test_add_duplicate_rejected(lst):
    lst.add(entry(1))
    assert not lst.add(entry(1))
    assert len(lst) == 1


def test_capacity_enforced(lst):
    for i in range(10):
        lst.add(entry(i))
    assert len(lst) == 5


def test_initial_expertise_default_one(lst):
    lst.add(entry(1))
    assert lst.get(bytes([1])).expertise.value == 1.0


def test_update_expertise(lst):
    lst.add(entry(1))
    new = lst.update_expertise(bytes([1]), evaluation=0.2, outcome=1.0)
    assert new == pytest.approx(0.5)
    assert lst.update_expertise(bytes([9]), 0.5, 0.5) is None


def test_evict_below_threshold(lst):
    lst.add(entry(1))
    lst.add(entry(2))
    lst.update_expertise(bytes([1]), 0.2, 1.0)  # 0.5
    lst.update_expertise(bytes([1]), 0.2, 1.0)  # 0.25 < 0.4
    victims = lst.evict_below_threshold()
    assert [v.node_id for v in victims] == [bytes([1])]
    assert bytes([1]) not in lst
    assert lst.evictions == 1


def test_park_offline_positive_expertise(lst):
    lst.add(entry(1))
    assert lst.park_offline(bytes([1]))
    assert bytes([1]) not in lst
    assert len(lst.backup_agents()) == 1


def test_park_offline_unknown_returns_false(lst):
    assert not lst.park_offline(bytes([9]))


def test_backup_cache_most_recent_first(lst):
    for i in range(1, 4):
        lst.add(entry(i))
        lst.park_offline(bytes([i]))
    backups = lst.backup_agents()
    assert backups[0].node_id == bytes([3])  # most recently parked first


def test_backup_cache_capacity_evicts_oldest(lst):
    for i in range(1, 6):
        lst.add(entry(i))
        lst.park_offline(bytes([i]))
    assert len(lst.backup_agents()) == 3
    ids = {a.node_id for a in lst.backup_agents()}
    assert ids == {bytes([3]), bytes([4]), bytes([5])}


def test_restore_from_backup(lst):
    lst.add(entry(1))
    lst.park_offline(bytes([1]))
    assert lst.restore_from_backup(bytes([1]))
    assert bytes([1]) in lst
    assert lst.backup_agents() == []
    assert lst.backups_restored == 1


def test_restore_preserves_expertise(lst):
    lst.add(entry(1))
    lst.update_expertise(bytes([1]), 0.2, 1.0)  # 0.5
    lst.park_offline(bytes([1]))
    lst.restore_from_backup(bytes([1]))
    assert lst.get(bytes([1])).expertise.value == pytest.approx(0.5)


def test_restore_blocked_when_full(lst):
    lst.add(entry(0))
    lst.park_offline(bytes([0]))
    for i in range(1, 6):
        lst.add(entry(i))
    assert not lst.restore_from_backup(bytes([0]))
    assert len(lst.backup_agents()) == 1  # still parked


def test_readding_clears_backup(lst):
    lst.add(entry(1))
    lst.park_offline(bytes([1]))
    lst.add(entry(1))
    assert lst.backup_agents() == []


def test_drop_backup(lst):
    lst.add(entry(1))
    lst.park_offline(bytes([1]))
    lst.drop_backup(bytes([1]))
    assert lst.backup_agents() == []


def test_zero_backup_capacity_removes_outright():
    lst = TrustedAgentList(capacity=5, alpha=0.5, eviction_threshold=0.4, backup_capacity=0)
    lst.add(entry(1))
    assert not lst.park_offline(bytes([1]))
    assert lst.backup_agents() == []


def test_shared_weights_are_expertise(lst):
    """What a reply shares — as columns, and as the entry built for a
    winner — carries the tracked expertise, not the adopted weight."""
    lst.add(entry(1, weight=0.123))
    lst.add(entry(2))
    lst.update_expertise(bytes([1]), 0.2, 1.0)
    node_ids, weights = lst.columns()
    assert node_ids == [bytes([1]), bytes([2])]
    assert weights == [pytest.approx(0.5), 1.0]
    shared = lst.shared_entry(bytes([1]))
    assert shared.weight == pytest.approx(0.5)
    assert shared.agent_onion is lst.get(bytes([1])).entry.agent_onion


def test_select_for_query_prefers_expertise_then_track_record(lst, rng):
    lst.add(entry(1))
    lst.add(entry(2))
    lst.add(entry(3))
    # Agent 1: proven good (consistent update keeps 1.0, updates=1).
    lst.update_expertise(bytes([1]), 0.9, 1.0)
    # Agent 2: proven bad.
    lst.update_expertise(bytes([2]), 0.1, 1.0)
    picked = lst.select_for_query(2, rng)
    ids = [a.node_id for a in picked]
    assert ids[0] == bytes([1])       # expertise 1.0 and proven
    assert bytes([2]) not in ids      # expertise 0.5 ranks last


def test_select_for_query_empty(lst, rng):
    assert lst.select_for_query(3, rng) == []


def test_needs_refill(lst):
    lst.add(entry(1))
    assert lst.needs_refill(3)
    lst.add(entry(2))
    lst.add(entry(3))
    assert not lst.needs_refill(3)


def test_refresh_onion_keeps_freshest(lst, sim_backend, rng):
    from repro.crypto.keys import PeerKeys
    from repro.onion.onion import build_onion

    keys = PeerKeys.generate(sim_backend, rng)
    lst.add(entry(1))
    agent = lst.get(bytes([1]))
    new = build_onion(sim_backend, keys.ap, keys.sr, 1, [], seq=5)
    agent.refresh_onion(new)
    assert agent.entry.agent_onion.seq == 5
    stale = build_onion(sim_backend, keys.ap, keys.sr, 1, [], seq=3)
    agent.refresh_onion(stale)
    assert agent.entry.agent_onion.seq == 5  # stale onion ignored


def test_validation():
    with pytest.raises(ConfigError):
        TrustedAgentList(capacity=0, alpha=0.5, eviction_threshold=0.4, backup_capacity=1)
    with pytest.raises(ConfigError):
        TrustedAgentList(capacity=1, alpha=0.5, eviction_threshold=0.4, backup_capacity=-1)
