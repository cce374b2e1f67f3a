"""Unit tests for the §4.2 attack models."""

import numpy as np
import pytest

from repro.attacks.dos import restore_agents, take_down_top_agents
from repro.attacks.models import (
    RecommendationAttacker,
    install_recommendation_attack,
)
from repro.attacks.spoofing import forge_report, mount_spoofing_attack
from repro.attacks.sybil import SybilOperator
from repro.core.config import HiRepConfig
from repro.core.system import HiRepSystem
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def system():
    cfg = HiRepConfig(
        network_size=80,
        trusted_agents=10,
        refill_threshold=6,
        agents_queried=4,
        tokens=6,
        onion_relays=2,
        seed=77,
    )
    s = HiRepSystem(cfg)
    s.bootstrap()
    s.run(30, requestor=0)
    return s


@pytest.fixture
def rng():
    return np.random.default_rng(9)


class TestSpoofing:
    def test_forged_report_structure(self, system):
        victim = system.peers[1].node_id
        subject = system.peers[2].node_id
        report = forge_report(system, attacker_ip=3, victim_node_id=victim,
                              subject=subject, outcome=0.0)
        assert report.reporter_node_id == victim
        # Signature is the attacker's, so it cannot verify under victim SP.
        assert not system.backend.verify(
            system.peers[1].keys.sp, report.result, report.signature
        )

    def test_all_spoofed_reports_rejected(self, system, rng):
        agent_ip = max(
            system.agents, key=lambda ip: len(system.agents[ip].public_key_list)
        )
        attacker = next(
            ip for ip in range(system.config.network_size)
            if ip != agent_ip and ip != 0
        )
        outcome = mount_spoofing_attack(system, attacker, agent_ip, 30, rng)
        assert outcome.attempted == 30
        assert outcome.accepted == 0
        assert outcome.rejection_rate == 1.0


class TestRecommendationAttack:
    def test_hook_only_fires_for_compromised(self, system):
        attacker = RecommendationAttacker(system, compromised={5})
        assert attacker(6) is None
        forged = attacker(5)
        assert forged is not None

    def test_forged_weights(self, system):
        attacker = RecommendationAttacker(system, compromised={5})
        forged = attacker(5)
        poor_ids = {system.peers[ip].node_id for ip in system.poor_agent_ips()}
        good_ids = {system.peers[ip].node_id for ip in system.good_agent_ips()}
        for entry in forged:
            if entry.agent_node_id in poor_ids:
                assert entry.weight == 1.0
            if entry.agent_node_id in good_ids:
                assert entry.weight == 0.0

    def test_install_sets_hook(self, rng):
        cfg = HiRepConfig(network_size=60, seed=70, trusted_agents=8,
                          refill_threshold=4, agents_queried=3, onion_relays=1)
        s = HiRepSystem(cfg)
        attacker = install_recommendation_attack(s, 0.25, rng)
        assert s.discovery_list_hook is attacker
        assert 10 <= len(attacker.compromised) <= 20

    def test_install_validates_fraction(self, system, rng):
        with pytest.raises(ConfigError):
            install_recommendation_attack(system, 1.5, rng)

    def test_good_agents_survive_attack(self, rng):
        """§4.2.1's core guarantee: good agents still reach trusted lists."""
        cfg = HiRepConfig(network_size=60, seed=71, trusted_agents=8,
                          refill_threshold=4, agents_queried=3, onion_relays=1,
                          tokens=6)
        s = HiRepSystem(cfg)
        install_recommendation_attack(s, 0.3, rng)
        s.bootstrap()
        good_ids = {s.peers[ip].node_id for ip in s.good_agent_ips()}
        in_lists = sum(
            1
            for peer in s.peers
            for agent in peer.agent_list.agents()
            if agent.node_id in good_ids
        )
        assert in_lists > 0


class TestSybil:
    def test_identities_valid_but_distinct(self, system, rng):
        host = next(iter(system.agents))
        op = SybilOperator(system, host, count=5, rng=rng)
        ids = {k.node_id for k in op.identities}
        assert len(ids) == 5
        from repro.crypto.hashing import verify_node_id

        for keys in op.identities:
            assert verify_node_id(keys.node_id, keys.sp)

    def test_entries_advertise_host_ip(self, system, rng):
        host = next(iter(system.agents))
        op = SybilOperator(system, host, count=3, rng=rng)
        for entry in op.entries():
            assert entry.agent_ip == host
            assert entry.weight == 1.0


    def test_sybils_on_one_ip_stay_distinct_candidates(self, rng):
        """Discovery ranks by nodeID, not by ip: several forged identities
        behind one host each compete, and win, as their own candidate."""
        cfg = HiRepConfig(network_size=60, seed=73, trusted_agents=8,
                          refill_threshold=4, agents_queried=3, onion_relays=1,
                          tokens=6)
        s = HiRepSystem(cfg)
        host = next(iter(s.agents))
        op = SybilOperator(s, host, count=4, rng=rng)
        op.install(set(range(cfg.network_size)) - {host})
        s.bootstrap()
        sybil_ids = {keys.node_id for keys in op.identities}
        held = [
            sum(a.node_id in sybil_ids for a in peer.agent_list.agents())
            for peer in s.peers
        ]
        assert max(held) == 4
        assert all(
            a.entry.agent_ip == host
            for peer in s.peers
            for a in peer.agent_list.agents()
            if a.node_id in sybil_ids
        )


class TestDoS:
    def test_takedown_and_restore(self):
        cfg = HiRepConfig(network_size=60, seed=72, trusted_agents=8,
                          refill_threshold=4, agents_queried=3, onion_relays=1)
        s = HiRepSystem(cfg)
        s.bootstrap()
        outcome = take_down_top_agents(s, count=3)
        assert len(outcome.disabled) == 3
        for ip in outcome.disabled:
            assert not s.network.is_online(ip)
        restore_agents(s, outcome)
        for ip in outcome.disabled:
            assert s.network.is_online(ip)

    def test_exclusion_respected(self):
        cfg = HiRepConfig(network_size=60, seed=73, trusted_agents=8,
                          refill_threshold=4, agents_queried=3, onion_relays=1)
        s = HiRepSystem(cfg)
        s.bootstrap()
        protected = set(list(s.agents)[:2])
        outcome = take_down_top_agents(s, count=5, exclude=protected)
        assert not (set(outcome.disabled) & protected)

    def test_targets_most_popular(self):
        cfg = HiRepConfig(network_size=60, seed=74, trusted_agents=8,
                          refill_threshold=4, agents_queried=3, onion_relays=1)
        s = HiRepSystem(cfg)
        s.bootstrap()
        from repro.attacks.dos import _agent_popularity

        popularity = _agent_popularity(s)
        outcome = take_down_top_agents(s, count=2)
        max_popularity = max(popularity.values())
        assert popularity[outcome.disabled[0]] == max_popularity
