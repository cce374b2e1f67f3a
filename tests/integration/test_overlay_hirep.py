"""Integration: hiREP running over an explicitly supplied topology."""

import numpy as np
import pytest

from repro.core.config import HiRepConfig
from repro.core.system import HiRepSystem
from repro.errors import ConfigError
from repro.net.topology import ring_lattice, small_world_topology


@pytest.fixture(scope="module")
def system():
    topo = small_world_topology(80, 4.0, np.random.default_rng(60))
    cfg = HiRepConfig(
        network_size=80, trusted_agents=10, refill_threshold=6,
        agents_queried=4, tokens=6, onion_relays=2, seed=61,
    )
    s = HiRepSystem(cfg, topology=topo)
    s.bootstrap()
    s.reset_metrics()
    return s


def test_hirep_runs_over_supplied_topology(system):
    outs = system.run(20, requestor=0)
    assert all(o.answered > 0 for o in outs)
    assert system.mse.mse() < 0.2


def test_traffic_bound_holds_on_overlay_topology(system):
    out = system.run_transaction(requestor=0)
    assert out.trust_messages == 3 * 4 * 3  # 3 legs x c=4 x (o=2 + 1)


def test_topology_size_mismatch_rejected():
    cfg = HiRepConfig(network_size=50, seed=1)
    with pytest.raises(ConfigError):
        HiRepSystem(cfg, topology=ring_lattice(40, k=2))


def test_same_overlay_same_world():
    topo = small_world_topology(60, 4.0, np.random.default_rng(5))
    cfg = HiRepConfig(
        network_size=60, trusted_agents=8, refill_threshold=4,
        agents_queried=3, tokens=5, onion_relays=1, seed=6,
    )
    a = HiRepSystem(cfg, topology=topo)
    b = HiRepSystem(cfg, topology=topo)
    assert np.array_equal(a.truth, b.truth)
    assert a.topology.adjacency == b.topology.adjacency == topo.adjacency
