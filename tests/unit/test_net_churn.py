"""Unit tests for the churn model."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.net.churn import ChurnModel
from repro.net.network import P2PNetwork
from repro.net.topology import ring_lattice


@pytest.fixture
def net():
    return P2PNetwork(ring_lattice(50, k=1), np.random.default_rng(1))


def test_validation():
    with pytest.raises(ConfigError):
        ChurnModel(leave_prob=1.5)
    with pytest.raises(ConfigError):
        ChurnModel(leave_prob=0.1, rejoin_prob=-0.1)


def test_repr_names_the_run_not_the_object():
    """Perf records key a series by ``str()`` of a run's options."""
    assert repr(ChurnModel(0.01, 0.2)) == "ChurnModel(0.01, 0.2)"
    assert repr(ChurnModel(0.1, protected={3, 1})) == "ChurnModel(0.1, 0.5, protected=[1, 3])"


def test_zero_churn_is_noop(net):
    churn = ChurnModel(leave_prob=0.0, rejoin_prob=0.0)
    rng = np.random.default_rng(2)
    churn.step(net, rng)
    assert len(net.online_nodes()) == 50


def test_certain_leave_empties_network(net):
    churn = ChurnModel(leave_prob=1.0, rejoin_prob=0.0)
    churn.step(net, np.random.default_rng(2))
    assert net.online_nodes() == []
    assert churn.stats.departures == 50


def test_rejoin_brings_nodes_back(net):
    churn = ChurnModel(leave_prob=1.0, rejoin_prob=1.0)
    rng = np.random.default_rng(2)
    churn.step(net, rng)  # all leave
    churn.step(net, rng)  # all rejoin
    assert len(net.online_nodes()) == 50
    assert churn.stats.rejoins == 50


def test_protected_nodes_never_leave(net):
    churn = ChurnModel(leave_prob=1.0, rejoin_prob=0.0, protected={7})
    churn.step(net, np.random.default_rng(2))
    assert net.online_nodes() == [7]


def test_stationary_fraction_approached(net):
    churn = ChurnModel(leave_prob=0.1, rejoin_prob=0.3)
    rng = np.random.default_rng(3)
    for _ in range(200):
        churn.step(net, rng)
    online = len(net.online_nodes()) / 50
    assert abs(online - 0.3 / (0.1 + 0.3)) < 0.25  # rejoin / (leave + rejoin)


def test_stats_count_every_transition(net):
    churn = ChurnModel(leave_prob=1.0, rejoin_prob=1.0)
    rng = np.random.default_rng(5)
    churn.step(net, rng)  # 50 departures
    churn.step(net, rng)  # 50 rejoins
    churn.step(net, rng)  # 50 departures again
    assert churn.stats.departures == 100
    assert churn.stats.rejoins == 50


def test_extra_protected_shields_for_one_step_only(net):
    churn = ChurnModel(leave_prob=1.0, rejoin_prob=0.0, protected={7})
    churn.step(net, np.random.default_rng(2), extra_protected={3})
    assert sorted(net.online_nodes()) == [3, 7]
    # The shield does not persist: the next step takes node 3 down too.
    churn.step(net, np.random.default_rng(2))
    assert net.online_nodes() == [7]
    assert churn.protected == {7}  # permanent set untouched


def test_messages_to_churned_node_charged_but_not_delivered(net):
    """Datagram semantics survive churn: the sender pays, nobody receives."""
    got = []
    net.register_handler(9, lambda m: got.append(m))
    churn = ChurnModel(leave_prob=1.0, rejoin_prob=0.0, protected={0})
    churn.step(net, np.random.default_rng(2))  # node 9 churns offline
    assert not net.is_online(9)
    before = net.counter.total
    net.send(0, 9, "into the void")
    net.run()
    assert net.counter.total == before + 1
    assert got == []
    # After rejoining, delivery works again and is charged the same way.
    churn2 = ChurnModel(leave_prob=0.0, rejoin_prob=1.0)
    churn2.step(net, np.random.default_rng(3))
    net.send(0, 9, "hello again")
    net.run()
    assert net.counter.total == before + 2
    assert len(got) == 1


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
