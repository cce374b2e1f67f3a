"""Unit tests for serve transports: in-memory inboxes, TCP loopback, framing."""

import asyncio
from types import SimpleNamespace

import pytest

from repro.errors import WireError
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


def test_make_transport_names():
    assert isinstance(make_transport("inproc"), InProcessTransport)
    assert isinstance(make_transport("tcp"), TcpLoopbackTransport)
    assert set(TRANSPORT_NAMES) == {"inproc", "tcp"}
    with pytest.raises(ValueError):
        make_transport("carrier-pigeon")


def test_tcp_stream_framing_round_trips():
    frame = make_frame(payload=b"\x00" * 300)
    packed = _tcp_pack(frame)
    body = packed[4:]
    assert len(body) == int.from_bytes(packed[:4], "big")
    assert _tcp_unpack(body) == frame


@pytest.mark.parametrize("name", TRANSPORT_NAMES)
def test_post_get_and_in_flight(name):
    async def scenario():
        transport = make_transport(name)
        await transport.start(range(4))
        assert transport.in_flight() == 0
        for dst in (1, 2, 1):
            transport.post(make_frame(dst=dst))
        assert transport.frames_posted == 3
        got = [await transport.get(1), await transport.get(1), await transport.get(2)]
        assert transport.in_flight() == 0
        await transport.stop()
        return got

    got = run(scenario())
    assert [f.dst for f in got] == [1, 1, 2]
    assert all(f.category == "trust_request" and f.sent_at == 2.5 for f in got)


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
        await transport.get(1)
        await transport.get(1)
        await transport.stop()
        return transport

    transport = run(scenario())
    assert transport.bytes_posted == 100
    assert transport.frames_delivered == 2


def test_frames_posted_to_a_crashed_actor_wait_for_its_restart_in_order():
    """A crash cancels the actor's waiter; what is posted meanwhile stays in
    the inbox, and the restarted actor handles it first, in posting order."""
    handled = []
    network = SimpleNamespace(n=3, deliver_frame=handled.append)
    transport = InProcessTransport()
    supervisor = Supervisor(
        SimpleNamespace(agents={}), network, transport, poll_interval_s=0.001
    )

    def frames(dst, tags):
        return [make_frame(dst=dst, payload=bytes([tag])) for tag in tags]

    async def until(condition):
        for _ in range(1000):
            if condition():
                return
            await asyncio.sleep(0.001)
        raise AssertionError("fleet made no progress")

    async def scenario():
        await supervisor.start()
        await asyncio.sleep(0)  # every actor is now parked on its inbox
        waiter = transport._inboxes[1]._waiter
        assert waiter is not None
        supervisor.kill(1)
        supervisor.kill(2)  # crashed with nothing posted to it
        assert waiter.cancelled()
        for frame in frames(1, range(5)) + frames(0, [9]) + frames(1, [5, 6]):
            transport.post(frame)
        await asyncio.sleep(0)
        assert not supervisor.actors[1].alive
        assert [f.dst for f in handled] == [0]
        await until(lambda: supervisor.restarts == 2 and len(handled) == 8)
        for frame in frames(2, [7]) + frames(1, [8]):
            transport.post(frame)
        await until(lambda: len(handled) == 10)
        await supervisor.stop()

    run(scenario())
    assert [ip for ip, _ in supervisor.incidents] == [1, 2]
    by_node = {ip: [f.payload[0] for f in handled if f.dst == ip] for ip in range(3)}
    assert by_node == {0: [9], 1: [0, 1, 2, 3, 4, 5, 6, 8], 2: [7]}
    assert transport.in_flight() == 0
