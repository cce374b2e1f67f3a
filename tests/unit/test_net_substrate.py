"""Unit tests for the per-node store all three networks share."""

import inspect

import numpy as np
import pytest

from repro.errors import NetworkError, UnknownNodeError
from repro.net.network import P2PNetwork
from repro.net.substrate import Substrate
from repro.net.topology import ring_lattice
from repro.obs.clock import WallClock
from repro.serve.network import ServeNetwork
from repro.serve.transport import make_transport
from repro.vector.network import ArrayNetwork

N = 10


def serve_network(topology, rng):
    return ServeNetwork(
        topology, rng, engine=WallClock(), transport=make_transport("inproc")
    )


NETWORKS = [P2PNetwork, ArrayNetwork, serve_network]


@pytest.fixture(params=NETWORKS, ids=["p2p", "array", "serve"])
def net(request):
    return request.param(ring_lattice(N, k=1), np.random.default_rng(1))


# ------------------------------------------------------------- written once


def test_networks_share_one_definition_of_node_state():
    shared = (
        "set_online",
        "apply_churn",
        "online_indices",
        "online_nodes",
        "is_online",
        "agent_capable_nodes",
        "transmission_ms",
        "node",
    )
    for cls in (P2PNetwork, ArrayNetwork, ServeNetwork):
        assert issubclass(cls, Substrate)
        for name in shared:
            assert inspect.getattr_static(cls, name) is inspect.getattr_static(
                Substrate, name
            ), (cls.__name__, name)
    assert "__init__" not in vars(ArrayNetwork)


def test_no_per_node_objects_are_kept(net):
    assert not hasattr(net, "nodes")


def test_same_seed_same_draws_on_every_network():
    topology = ring_lattice(64, k=2)
    nets = [cls(topology, np.random.default_rng(7)) for cls in NETWORKS]
    for other in nets[1:]:
        assert np.array_equal(nets[0].bandwidth, other.bandwidth)
    # ... and every generator is left in the same state.
    states = [n.rng.bit_generator.state["state"] for n in nets]
    assert states[0] == states[1] == states[2]


# ------------------------------------------------------------ bounds check


@pytest.mark.parametrize("index", [-1, -N, N, N + 5])
def test_every_index_outside_the_network_is_unknown(net, index):
    """No negative-index aliasing: −1 is the forged-entry sentinel ip, and
    must never read or flip node N−1."""
    with pytest.raises(UnknownNodeError):
        net.node(index)
    with pytest.raises(UnknownNodeError):
        net.is_online(index)
    with pytest.raises(UnknownNodeError):
        net.set_online(index, False)
    assert net.online_mask.all() and not net.any_offline


@pytest.mark.parametrize("index", [-1, N])
def test_delivery_rejects_unknown_nodes(index):
    for make in (P2PNetwork, serve_network):
        net = make(ring_lattice(N, k=1), np.random.default_rng(1))
        with pytest.raises(UnknownNodeError):
            net.register_handler(index, lambda msg: None)
        with pytest.raises(UnknownNodeError):
            net.send(index, 0, "x")
        with pytest.raises(UnknownNodeError):
            net.send(0, index, "x")
        assert net.counter.total == 0 and index not in net._handlers


@pytest.mark.parametrize("make", [P2PNetwork, serve_network], ids=["p2p", "serve"])
def test_send_checks_src_then_liveness_then_dst_before_anything(make):
    """Both sends raise in one order — unknown src, offline src, unknown
    dst — and each before a message is counted, observed or posted."""
    net = make(ring_lattice(N, k=1), np.random.default_rng(1))
    seen = []
    net.observers.append(seen.append)
    net.set_online(3, False)
    cases = [
        (-1, N, UnknownNodeError, -1),  # bad src wins over bad dst
        (N, 3, UnknownNodeError, N),
        (3, N, NetworkError, None),  # offline src wins over bad dst
        (3, 0, NetworkError, None),
        (0, N, UnknownNodeError, N),
        (0, -1, UnknownNodeError, -1),
    ]
    for src, dst, error, index in cases:
        with pytest.raises(NetworkError) as raised:
            net.send(src, dst, "x", category="trust_query")
        assert type(raised.value) is error, (src, dst)
        if index is not None:
            assert raised.value.args == (index,)
    assert net.counter.total == 0 and seen == []
    if make is serve_network:
        assert net.frames_sent == 0 and net.transport.frames_posted == 0


# -------------------------------------------------- plain Python at the edge


def test_reads_hand_out_plain_python_values(net):
    net.set_online(4, False)
    assert net.is_online(3) is True and net.is_online(4) is False
    node = net.node(3)
    assert type(node.bandwidth_kbps) is float and node.online is True
    assert node.bandwidth_kbps == net.bandwidth[3]
    assert node.neighbors == net.topology.neighbors(3)
    assert all(type(i) is int for i in net.online_nodes())
    assert all(type(i) is int for i in net.agent_capable_nodes())


def test_alive_is_a_read_only_view_of_the_liveness_mask(net):
    """``alive`` is the public per-node liveness read: the mask's own buffer
    (so every flip shows through it), Python bools, and no way to write."""
    alive = net.alive
    assert alive.readonly and alive.obj is net.online_mask
    assert np.shares_memory(np.asarray(alive), net.online_mask)
    net.set_online(4, False)
    assert alive[4] is False and alive[3] is True
    draws = np.zeros(N)
    draws[7] = 0.9  # everyone online leaves but node 7; node 4 rejoins
    net.apply_churn(draws, 0.5, 0.5, {0})
    assert alive.tolist() == net.online_mask.tolist() == [i in (0, 4, 7) for i in range(N)]
    with pytest.raises(TypeError):
        alive[3] = True
    assert net.alive is alive and alive[3] is False


def test_link_horizons_are_python_floats():
    net = P2PNetwork(ring_lattice(N, k=1), np.random.default_rng(1))
    net.send(0, 3, "x")
    assert type(net._link_free_at[3]) is float


# ----------------------------------------------------- the online-list epoch


def test_online_list_is_cached_until_liveness_changes(net):
    first = net.online_nodes()
    assert first == list(range(N)) and net.online_nodes() is first
    net.set_online(2, True)  # no change: same epoch
    assert net.online_nodes() is first
    net.set_online(2, False)
    second = net.online_nodes()
    assert second is not first and 2 not in second
    assert first == list(range(N))  # a list handed out is never edited
    net.apply_churn(np.ones(N), 0.5, 0.5, ())  # draws too high: nobody moves
    assert net.online_nodes() is second
    net.apply_churn(np.zeros(N), 0.0, 1.0, {2})  # 2 is shielded: stays down
    assert net.online_nodes() is second
    net.apply_churn(np.zeros(N), 0.0, 1.0, ())
    assert net.online_nodes() == list(range(N)) and not net.any_offline


# ------------------------------------------------------------ the churn step


def test_apply_churn_ignores_foreign_and_repeated_skip_entries(net):
    """``skip`` is any iterable of ints: entries off either end of the index
    range name nobody (−1 is not the last node), a node named twice is
    shielded once, and the liveness mask, both counts and the offline tally
    move together."""
    net.set_online(3, False)
    net.set_online(7, False)
    draws = np.zeros(N)  # everyone online would leave, everyone offline rejoin
    draws[5] = 0.9  # … but node 5, whose draw clears both probabilities
    skip = [-1, 0, 0, 3, N, N + 4, 3, -N]
    assert net.apply_churn(draws, 0.5, 0.5, skip) == (6, 1)
    assert net.online_nodes() == [0, 5, 7]  # 0 and 3 shielded, 9 = N − 1 was not
    assert net.online_mask.tolist() == [i in (0, 5, 7) for i in range(N)]
    assert net.any_offline
    assert net.apply_churn(draws, 0.0, 1.0, iter(skip)) == (0, 6)
    assert net.online_nodes() == [i for i in range(N) if i != 3]
    net.set_online(3, True)
    assert not net.any_offline
