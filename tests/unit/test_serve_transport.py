"""Unit tests for serve transports: in-memory inboxes, TCP loopback, framing."""

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import WireError
from repro.net.topology import ring_lattice
from repro.obs.clock import WallClock
from repro.serve.actors import NodeActor
from repro.serve.network import ServeNetwork
from repro.serve.supervisor import Supervisor
from repro.serve.transport import (
    TRANSPORT_NAMES,
    Frame,
    InProcessTransport,
    TcpLoopbackTransport,
    _tcp_pack,
    _tcp_unpack,
    make_transport,
)


def run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


def make_frame(src=0, dst=1, payload=b"hR\x01\x00\x00\x00\x00"):
    return Frame(src=src, dst=dst, category="trust_request", sent_at=2.5, payload=payload)


def recording_actors(transport, ips):
    """Start an actor on each of ``ips`` whose network records each frame it
    is handed as ``(ip, frame)``, in handling order; returns that record."""
    handled = []
    for ip in ips:
        network = SimpleNamespace(deliver_frame=lambda f, ip=ip: handled.append((ip, f)))
        NodeActor(ip, network, transport).start()
    return handled


async def until(condition):
    for _ in range(1000):
        if condition():
            return
        await asyncio.sleep(0.001)
    raise AssertionError("fleet made no progress")


def test_make_transport_names():
    assert isinstance(make_transport("inproc"), InProcessTransport)
    assert isinstance(make_transport("tcp"), TcpLoopbackTransport)
    assert set(TRANSPORT_NAMES) == {"inproc", "tcp"}
    with pytest.raises(ValueError):
        make_transport("carrier-pigeon")


def test_tcp_stream_framing_round_trips():
    frame = make_frame(payload=b"\x00" * 300)
    assert not hasattr(frame, "__dict__")  # slotted, built positionally
    assert frame == Frame(0, 1, "trust_request", 2.5, b"\x00" * 300)
    packed = _tcp_pack(frame)
    body = packed[4:]
    assert len(body) == int.from_bytes(packed[:4], "big")
    back = _tcp_unpack(body)
    assert type(back) is Frame and back == frame


@pytest.mark.parametrize("name", TRANSPORT_NAMES)
def test_post_get_and_in_flight(name):
    async def scenario():
        transport = make_transport(name)
        await transport.start(range(4))
        assert transport.in_flight() == 0
        for dst, tag in ((1, 0), (2, 1), (1, 2)):
            transport.post(make_frame(dst=dst, payload=bytes([tag])))
        assert transport.frames_posted == 3 and transport.in_flight() == 3
        got = recording_actors(transport, range(4))
        await until(lambda: len(got) == 3)
        assert transport.in_flight() == 0
        await transport.stop()
        return got

    got = run(scenario())
    assert all(ip == f.dst for ip, f in got)  # each frame reached its own dst's actor
    assert all(f.category == "trust_request" and f.sent_at == 2.5 for _, f in got)
    handled = [(ip, f.payload[0]) for ip, f in got]
    if name == "inproc":
        assert handled == [(1, 0), (1, 2), (2, 1)]
    else:  # frames to two nodes cross two connections, in either order
        assert sorted(handled) == [(1, 0), (1, 2), (2, 1)]


def test_inproc_rejects_unknown_destination():
    async def scenario():
        transport = InProcessTransport()
        await transport.start(range(2))
        with pytest.raises(WireError):
            transport.post(make_frame(dst=99))
        await transport.stop()

    run(scenario())


def test_tcp_rejects_unknown_destination():
    async def scenario():
        transport = TcpLoopbackTransport()
        await transport.start(range(2))
        with pytest.raises(WireError):
            transport.post(make_frame(dst=99))
        await transport.stop()

    run(scenario())


def test_tcp_drops_and_counts_bodies_that_are_no_frame():
    """A 3-byte body and one whose category is not UTF-8, then a fleet
    frame, on one connection: both are dropped and counted where the fleet
    reads its rejections, the connection reads on, and nothing reaches
    the loop's exception handler."""
    bad_category = b"\x00" * 16 + b"\x00\x02" + b"\xff\xfe"  # src, dst, sent_at, length

    async def scenario():
        transport = TcpLoopbackTransport()
        network = ServeNetwork(
            ring_lattice(4, k=1), np.random.default_rng(1), engine=WallClock(), transport=transport
        )
        handled = []
        asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: handled.append(ctx))
        await transport.start(range(4))
        got = recording_actors(transport, [1])
        _, writer = await asyncio.open_connection("127.0.0.1", transport.ports[1])
        for body in (b"abc", bad_category):
            writer.write(len(body).to_bytes(4, "big") + body)
        writer.write(_tcp_pack(make_frame(dst=1)))
        await writer.drain()
        await until(lambda: got)
        writer.close()
        await writer.wait_closed()
        await transport.stop()
        return got, transport.frames_rejected, network.frames_rejected, handled

    got, rejected, seen_by_network, handled = run(scenario())
    assert got == [(1, make_frame(dst=1))]
    assert rejected == seen_by_network == 2
    assert handled == []


def test_tcp_refuses_a_frame_read_off_another_nodes_port():
    """A frame naming node 3, written to node 1's port, is dropped and
    counted where the fleet reads its rejections: neither node's actor
    handles it (node 1's would run node 3's handler), and nothing is
    left in flight."""

    async def scenario():
        transport = TcpLoopbackTransport()
        await transport.start(range(4))
        network = SimpleNamespace(deliver_frame=lambda f: None)
        actors = [NodeActor(ip, network, transport) for ip in (1, 3)]
        for actor in actors:
            actor.start()
        _, writer = await asyncio.open_connection("127.0.0.1", transport.ports[1])
        writer.write(_tcp_pack(make_frame(src=0, dst=3)))
        await writer.drain()
        await until(
            lambda: transport.frames_rejected or any(a.frames_handled for a in actors)
        )
        await asyncio.sleep(0.01)  # time for a frame put in an inbox to be handled
        seen = [a.frames_handled for a in actors], transport.frames_rejected, transport.in_flight()
        writer.close()
        await writer.wait_closed()
        await transport.stop()
        return seen

    handled, rejected, in_flight = run(scenario())
    assert handled == [0, 0]
    assert rejected == 1
    assert in_flight == 0


def test_tcp_brings_up_one_port_per_node():
    async def scenario():
        transport = TcpLoopbackTransport()
        await transport.start(range(5))
        ports = dict(transport.ports)
        await transport.stop()
        return ports

    ports = run(scenario())
    assert sorted(ports) == [0, 1, 2, 3, 4]
    assert len(set(ports.values())) == 5


def test_counters_track_bytes():
    async def scenario():
        transport = InProcessTransport()
        await transport.start(range(2))
        transport.post(make_frame(payload=b"x" * 40))
        transport.post(make_frame(payload=b"y" * 60))
        recording_actors(transport, [1])
        await asyncio.sleep(0)
        await transport.stop()
        return transport

    transport = run(scenario())
    assert transport.bytes_posted == 100
    assert transport.frames_delivered == 2


def crash_scenario(deliver_frame):
    """Three nodes under a supervisor whose network hands each frame to
    ``deliver_frame``."""
    transport = InProcessTransport()
    network = SimpleNamespace(n=3, deliver_frame=deliver_frame)
    supervisor = Supervisor(SimpleNamespace(agents={}), network, transport)
    return transport, supervisor


def frames(dst, tags):
    return [make_frame(dst=dst, payload=bytes([tag])) for tag in tags]


def test_frames_posted_to_a_crashed_actor_wait_for_its_restart_in_order():
    """What is posted to a crashed actor stays in its inbox, and the
    restarted actor handles it first, in posting order."""
    handled = []
    transport, supervisor = crash_scenario(handled.append)

    async def scenario():
        await supervisor.start()
        supervisor.kill(1)
        supervisor.kill(2)  # crashed with nothing posted to it
        assert not supervisor.actors[1].alive
        for frame in frames(1, range(5)) + frames(0, [9]) + frames(1, [5, 6]):
            transport.post(frame)
        await asyncio.sleep(0)
        assert [f.dst for f in handled] == [0]
        await until(lambda: supervisor.restarts == 2 and len(handled) == 8)
        for frame in frames(2, [7]) + frames(1, [8]):
            transport.post(frame)
        await until(lambda: len(handled) == 10)
        await supervisor.stop()

    run(scenario())
    assert supervisor.incidents == [(1, "cancelled"), (2, "cancelled")]
    by_node = {ip: [f.payload[0] for f in handled if f.dst == ip] for ip in range(3)}
    assert by_node == {0: [9], 1: [0, 1, 2, 3, 4, 5, 6, 8], 2: [7]}
    assert transport.in_flight() == 0


def test_a_handler_that_raises_mid_drain_leaves_the_rest_to_the_restart():
    """Node 1's handler raises on its third frame: the actor goes down
    there, and the frames queued behind it go to the restarted actor, in
    posting order, with those posted while it was down after them."""
    handled = []

    def deliver_frame(frame):
        handled.append(frame)
        if frame.dst == 1 and frame.payload[0] == 2:
            raise ValueError("handler bug")

    transport, supervisor = crash_scenario(deliver_frame)

    async def scenario():
        await supervisor.start()
        for frame in frames(1, range(6)) + frames(0, [9]):
            transport.post(frame)
        await asyncio.sleep(0)
        assert not supervisor.actors[1].alive
        assert [f.payload[0] for f in handled] == [0, 1, 2, 9]
        transport.post(frames(1, [6])[0])
        await until(lambda: supervisor.restarts == 1 and len(handled) == 8)
        await supervisor.stop()

    run(scenario())
    assert supervisor.incidents == [(1, "ValueError")]
    assert supervisor.actors[1].frames_handled == 7
    by_node = {ip: [f.payload[0] for f in handled if f.dst == ip] for ip in range(3)}
    assert by_node == {0: [9], 1: [0, 1, 2, 3, 4, 5, 6], 2: []}
    assert transport.in_flight() == 0


def test_a_killed_actor_is_back_after_one_loop_turn():
    """The crash itself queues the restart: one yield to the loop and the
    actor is up again, counted once."""
    transport, supervisor = crash_scenario(lambda frame: None)

    async def scenario():
        await supervisor.start()
        supervisor.kill(1)
        assert not supervisor.actors[1].alive and supervisor.restarts == 0
        await asyncio.sleep(0)
        assert supervisor.actors[1].alive
        assert (supervisor.crashes_detected, supervisor.restarts) == (1, 1)
        await supervisor.stop()

    run(scenario())
    assert supervisor.incidents == [(1, "cancelled")]


def test_an_actor_whose_handler_raised_is_back_after_one_loop_turn():
    """As a kill: the turn that runs the failing handler queues the
    restart, and the next turn has the actor up again."""

    def deliver_frame(frame):
        raise ValueError("handler bug")

    transport, supervisor = crash_scenario(deliver_frame)

    async def scenario():
        await supervisor.start()
        transport.post(make_frame(dst=1))
        await asyncio.sleep(0)
        assert not supervisor.actors[1].alive and supervisor.restarts == 0
        await asyncio.sleep(0)
        assert supervisor.actors[1].alive
        assert (supervisor.crashes_detected, supervisor.restarts) == (1, 1)
        await supervisor.stop()

    run(scenario())
    assert supervisor.incidents == [(1, "ValueError")]
