"""Unit tests for the P2P network delivery layer."""

import dataclasses
from collections.abc import Iterator, MutableMapping, MutableSequence, MutableSet

import numpy as np
import pytest

from repro.errors import NetworkError, UnknownNodeError
from repro.net import messages
from repro.net.faults import FaultPlane, MessageLoss
from repro.net.latency import ConstantLatency
from repro.net.messages import Category, NetMessage
from repro.net.network import P2PNetwork
from repro.net.topology import ring_lattice


@pytest.fixture
def net():
    rng = np.random.default_rng(1)
    return P2PNetwork(
        ring_lattice(10, k=1),
        rng,
        latency_model=ConstantLatency(10.0),
        model_transmission=False,
    )


def collect(net, ip):
    box = []
    net.register_handler(ip, box.append)
    return box


def test_send_delivers_payload(net):
    box = collect(net, 3)
    net.send(0, 3, {"hello": 1})
    net.run()
    assert len(box) == 1
    assert box[0].payload == {"hello": 1}
    assert box[0].src == 0 and box[0].dst == 3


def test_send_applies_latency(net):
    collect(net, 5)
    net.send(0, 5, "x")
    net.run()
    assert net.engine.now == 10.0


def test_send_counts_by_category(net):
    net.send(0, 1, "x", category=Category.TRUST_QUERY)
    net.send(0, 2, "y", category=Category.TRUST_QUERY)
    assert net.counter.by_category[Category.TRUST_QUERY] == 2


def test_send_uncounted_when_requested(net):
    net.send(0, 1, "x", count=False)
    assert net.counter.total == 0


def test_offline_sender_rejected(net):
    net.set_online(0, False)
    with pytest.raises(NetworkError):
        net.send(0, 1, "x")


def test_offline_destination_drops_but_charges(net):
    box = collect(net, 4)
    net.set_online(4, False)
    net.send(0, 4, "x")
    net.run()
    assert box == []
    assert net.counter.total == 1


def test_unknown_node_rejected(net):
    with pytest.raises(UnknownNodeError):
        net.send(0, 99, "x")
    with pytest.raises(UnknownNodeError):
        net.node(-11)


@pytest.mark.parametrize(
    ("src", "dst", "offline", "expected"),
    [
        (10, 1, (), UnknownNodeError),
        (-1, 99, (), UnknownNodeError),  # src first, whatever dst is
        (10, 1, (1,), UnknownNodeError),
        (0, 1, (0,), NetworkError),
        (0, 99, (0,), NetworkError),  # an offline src: dst is never looked at
        (0, -1, (0,), NetworkError),
        (0, 10, (), UnknownNodeError),
        (0, -1, (), UnknownNodeError),
        (0, 10, (1,), UnknownNodeError),
    ],
)
def test_send_checks_src_then_liveness_then_dst(net, src, dst, offline, expected):
    """Unknown src, then offline src, then unknown dst — and nothing is
    charged, observed or drawn when a send is refused."""
    plane = FaultPlane([MessageLoss(0.5)], seed=3).install(net)
    before = plane.rng.bit_generator.state
    seen = []
    net.observers.append(seen.append)
    for node in offline:
        net.set_online(node, False)
    with pytest.raises(NetworkError) as info:
        net.send(src, dst, "x")
    assert info.type is expected
    assert net.counter.total == 0 and seen == [] and len(net.engine) == 0
    assert plane.stats.messages_seen == 0 and plane.rng.bit_generator.state == before


def test_online_listing(net):
    net.set_online(2, False)
    online = net.online_nodes()
    assert 2 not in online
    assert len(online) == 9


def test_agent_capable_respects_cutoff_and_liveness(net):
    capable = net.agent_capable_nodes()
    for ip in capable:
        assert net.node(ip).bandwidth_kbps > 64.0
    if capable:
        net.set_online(capable[0], False)
        assert capable[0] not in net.agent_capable_nodes()


def test_path_latency_sums_hops(net):
    assert net.path_latency([0, 1, 2, 3]) == pytest.approx(30.0)
    assert net.path_latency([5]) == 0.0


def test_transmission_ms_formula():
    # 512 bytes at 64 kbps: 512*8/64 = 64 ms.
    assert P2PNetwork.transmission_ms(64.0, 512) == pytest.approx(64.0)


def test_transmission_queueing_serializes():
    """Two messages to one node: second waits for the first's transmission."""
    rng = np.random.default_rng(2)
    net = P2PNetwork(
        ring_lattice(6, k=1),
        rng,
        latency_model=ConstantLatency(10.0),
        model_transmission=True,
    )
    arrivals = []
    net.register_handler(3, lambda m: arrivals.append(net.engine.now))
    transmit = net.transmission_ms(net.node(3).bandwidth_kbps, 512)
    net.send(0, 3, "a")
    net.send(1, 3, "b")
    net.run()
    assert arrivals[0] == pytest.approx(10.0 + transmit)
    assert arrivals[1] == pytest.approx(10.0 + 2 * transmit)


def test_offline_clears_link_horizon():
    """A churned-out node must not rejoin behind phantom serialization."""
    rng = np.random.default_rng(2)
    net = P2PNetwork(
        ring_lattice(6, k=1),
        rng,
        latency_model=ConstantLatency(10.0),
        model_transmission=True,
    )
    arrivals = []
    net.register_handler(3, lambda m: arrivals.append(net.engine.now))
    transmit = net.transmission_ms(net.node(3).bandwidth_kbps, 512)
    # Pile up a deep FIFO backlog on node 3's access link, then drop it
    # offline before anything is delivered.
    for _ in range(10):
        net.send(0, 3, "lost")
    net.set_online(3, False)
    net.run()
    assert arrivals == []  # offline: every queued delivery was dropped
    assert 3 not in net._link_free_at
    # On rejoin, a fresh message serializes only behind itself.
    net.set_online(3, True)
    rejoin = net.engine.now
    net.send(0, 3, "fresh")
    net.run()
    assert arrivals == [pytest.approx(rejoin + 10.0 + transmit)]


def test_churn_departure_clears_link_horizon():
    """ChurnModel departures route through set_online's horizon reset."""
    from repro.net.churn import ChurnModel

    rng = np.random.default_rng(5)
    net = P2PNetwork(
        ring_lattice(6, k=1),
        rng,
        latency_model=ConstantLatency(10.0),
        model_transmission=True,
    )
    for idx in range(6):
        net.send(0, idx, "x") if idx != 0 else None
    assert net._link_free_at
    churn = ChurnModel(leave_prob=1.0, rejoin_prob=0.0, protected={0})
    churn.step(net, np.random.default_rng(7))
    assert churn.stats.departures == 5
    assert all(idx not in net._link_free_at for idx in range(1, 6))


def test_custom_message_size(net):
    msg = net.send(0, 1, "x", size_bytes=2048)
    assert msg.size_bytes == 2048


def test_netmessage_carries_no_process_state():
    """Same arguments, same envelope — nothing is drawn from a global counter."""
    a = NetMessage(src=0, dst=1, payload=None)
    b = NetMessage(src=0, dst=1, payload=None)
    assert a == b
    assert dataclasses.astuple(a) == (0, 1, None, "control", 512, 0.0)
    stateful = [
        name
        for name, value in vars(messages).items()
        if not name.startswith("__")
        and isinstance(value, (Iterator, MutableSequence, MutableMapping, MutableSet))
    ]
    assert stateful == []
