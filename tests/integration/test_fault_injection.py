"""Integration: fault injection × timeout/retry/backoff on the query path.

The acceptance claims for the robustness extension:

* with faults disabled (default config) nothing in the transaction cycle
  behaves differently — the reliable-network runs stay bit-identical;
* with 20% uniform message loss and the deadline plane armed, queries
  still complete via retries (no hung ``finish_query``, a majority of
  transactions get at least one answer);
* ``FaultStats`` totals are deterministic for a fixed seed.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import HiRepConfig
from repro.core.system import HiRepSystem
from repro.errors import SimulationError
from repro.net.churn import ChurnModel
from repro.net.faults import CrashSchedule, CrashWindow, FaultPlane, MessageLoss

CFG = HiRepConfig(
    network_size=120,
    trusted_agents=10,
    refill_threshold=6,
    agents_queried=4,
    tokens=6,
    onion_relays=2,
    seed=404,
)

HARDENED = CFG.with_(
    query_timeout_ms=2_000.0,
    max_query_retries=2,
    agent_miss_limit=3,
)


def lossy_system(cfg=HARDENED, loss=0.2, fault_seed=11):
    system = HiRepSystem(cfg)
    plane = FaultPlane([MessageLoss(loss)], seed=fault_seed).install(system.network)
    system.bootstrap()
    system.reset_metrics()
    return system, plane


def test_queries_complete_under_twenty_percent_loss():
    system, plane = lossy_system()
    outs = system.run(40, requestor=0)
    assert len(outs) == 40  # every finish_query returned: nothing hangs
    answered = np.mean([o.answered > 0 for o in outs])
    assert answered > 0.5  # majority still served, via retries
    stats = system.retry_stats()
    assert stats["retries_sent"] > 0
    assert plane.stats.drops > 0


def test_fault_stats_deterministic_for_fixed_seed():
    a_sys, a_plane = lossy_system()
    a_sys.run(30, requestor=0)
    b_sys, b_plane = lossy_system()
    b_sys.run(30, requestor=0)
    assert a_plane.stats.as_dict() == b_plane.stats.as_dict()
    assert [o.estimate for o in a_sys.outcomes] == [
        o.estimate for o in b_sys.outcomes
    ]
    assert a_sys.retry_stats() == b_sys.retry_stats()


_FINGERPRINT_SCRIPT = """
from repro.core.config import HiRepConfig
from repro.core.system import HiRepSystem
from repro.net.faults import FaultPlane, MessageLoss

cfg = HiRepConfig(
    network_size=120, trusted_agents=10, refill_threshold=6,
    agents_queried=4, tokens=6, onion_relays=2, seed=404,
    query_timeout_ms=2_000.0, max_query_retries=2, agent_miss_limit=3,
)
system = HiRepSystem(cfg)
plane = FaultPlane([MessageLoss(0.2)], seed=11).install(system.network)
system.bootstrap()
system.reset_metrics()
outs = system.run(15, requestor=0)
print([o.estimate for o in outs])
print(system.retry_stats())
print(plane.stats.as_dict())
"""


def test_results_immune_to_hash_salt():
    """Cross-process determinism: retry ordering must not depend on the
    per-process hash salt (node ids are bytes — iterating a set of them
    would leak PYTHONHASHSEED into the message order)."""
    fingerprints = []
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=salt)
        proc = subprocess.run(
            [sys.executable, "-c", _FINGERPRINT_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        fingerprints.append(proc.stdout)
    assert fingerprints[0] == fingerprints[1]


def test_timeout_plane_is_inert_on_a_reliable_network():
    """A generous deadline on a loss-free network changes no estimate."""
    plain = HiRepSystem(CFG)
    plain.bootstrap()
    plain.reset_metrics()
    plain_outs = plain.run(15, requestor=0)

    armed = HiRepSystem(CFG.with_(query_timeout_ms=120_000.0))
    armed.bootstrap()
    armed.reset_metrics()
    armed_outs = armed.run(15, requestor=0)

    assert [o.estimate for o in armed_outs] == [o.estimate for o in plain_outs]
    assert [o.trust_messages for o in armed_outs] == [
        o.trust_messages for o in plain_outs
    ]
    assert armed.retry_stats()["retries_sent"] == 0


def test_unresponsive_agents_get_parked():
    """Agents that never answer strike out and land in the backup cache."""
    cfg = HARDENED.with_(agent_miss_limit=2, max_query_retries=1)
    system = HiRepSystem(cfg)
    FaultPlane([MessageLoss(1.0, category="trust_query")], seed=5).install(
        system.network
    )
    system.bootstrap()
    system.reset_metrics()
    peer = system.peers[0]
    listed_before = len(peer.agent_list)
    assert listed_before > 0
    for _ in range(4):
        try:
            system.run_transaction(requestor=0)
        except Exception:  # NoTrustedAgentsError once everyone struck out
            break
    assert peer.queries_timed_out > 0
    assert peer.unresponsive_parked > 0
    assert peer.agent_list.backups_parked > 0


def test_crash_windows_trigger_retry_traffic():
    victims = [CrashWindow(node=n, start_ms=500.0, end_ms=60_000.0)
               for n in range(1, 60)]
    system = HiRepSystem(HARDENED)
    plane = FaultPlane([CrashSchedule(victims)], seed=5).install(system.network)
    system.bootstrap()
    system.reset_metrics()
    outs = system.run(10, requestor=0)
    assert len(outs) == 10
    assert plane.stats.crashes == len(victims)
    # Half the network dying mid-run is noticed, not silently absorbed.
    assert system.retry_stats()["retries_sent"] > 0


def test_deadline_rebuild_draws_from_nodes_online_at_the_rebuild():
    """A peer asks its network who is online when it rebuilds a circuit.

    Everything but the requestor and its two relays is inside a crash
    window when the query starts and recovers before the first deadline;
    one relay then dies for good.  The deadline-driven rebuild must find
    two relays, online ones only — so at least one of them was *down* at
    query start; a pool captured at query start would leave a one-relay
    circuit here.
    """
    system = HiRepSystem(HARDENED)
    system.bootstrap()
    net, peer = system.network, system.peers[0]
    kept, dying = peer._relay_ips
    late = [n for n in range(1, CFG.network_size) if n not in (kept, dying)]
    windows = [CrashWindow(n, 0.0, 1_000.0) for n in late]
    windows.append(CrashWindow(dying, 500.0))
    FaultPlane([CrashSchedule(windows)], seed=1).install(net)
    net.run(until=0.0)
    assert net.online_nodes() == sorted([0, kept, dying])

    peer.start_query(system.truth_key(5))
    net.run()  # crash, recoveries, deadline, retries: to quiescence
    result = peer.finish_query()

    assert peer.circuits_rebuilt == 1 and result.retries > 0
    assert len(peer._relay_ips) == CFG.onion_relays == 2
    assert dying not in peer._relay_ips
    assert all(net.is_online(r) for r in peer._relay_ips)
    assert set(peer._relay_ips) & set(late)


def test_degradation_under_churn_and_loss_combined():
    """Fault plane and churn model compose on the same system."""
    churn = ChurnModel(leave_prob=0.05, rejoin_prob=0.4, protected={0})
    system = HiRepSystem(HARDENED, churn=churn)
    FaultPlane([MessageLoss(0.15)], seed=3).install(system.network)
    system.bootstrap()
    system.reset_metrics()
    outs = system.run(30, requestor=0)
    assert len(outs) == 30
    assert np.mean([o.answered > 0 for o in outs]) > 0.5


def test_offline_provider_rejected():
    system = HiRepSystem(CFG)
    system.bootstrap()
    system.network.set_online(33, False)
    with pytest.raises(SimulationError):
        system.run_transaction(requestor=0, provider=33)
    with pytest.raises(SimulationError):
        system.run_transaction(requestor=0, provider=5_000)
    # A valid online provider still works after the failed attempts.
    out = system.run_transaction(requestor=0, provider=34)
    assert out.provider == 34


def test_churn_protection_scoped_to_current_transaction():
    """Past requestors must stay eligible for churn (regression)."""
    churn = ChurnModel(leave_prob=0.2, rejoin_prob=0.5)
    system = HiRepSystem(CFG, churn=churn)
    system.bootstrap()
    for requestor in (0, 1, 2, 3, 4):
        if not system.network.is_online(requestor):
            continue
        system.run_transaction(requestor=requestor)
    assert churn.protected == set()
