"""Pluggable transports carrying encoded protocol frames between actors.

A transport moves :class:`Frame` objects — (src, dst, category, sent_at,
encoded payload) — from a synchronous ``post()`` at the network edge to an
awaitable per-node ``get()`` in the destination's actor loop.  Two
implementations:

* :class:`InProcessTransport` — one inbox per node; zero copies, the
  fastest fabric, and the determinism-guard reference.
* :class:`TcpLoopbackTransport` — one real TCP server socket per node on
  127.0.0.1, one shared outbound connection per destination; frames are
  length-prefixed on the stream, so every protocol byte genuinely crosses
  the host's loopback stack.

Every inbox and outbox is an :class:`_Inbox`: a deque with at most one
waiting consumer, woken in exactly the order an ``asyncio`` queue would
wake it.  Both transports keep posted/delivered counters, so
``in_flight()`` gives an exact quiescence signal (a frame counts as in
flight from ``post`` until an actor has pulled it from its inbox).
"""

from __future__ import annotations

import abc
import asyncio
import contextlib
import struct
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.errors import WireError

__all__ = [
    "Frame",
    "Transport",
    "InProcessTransport",
    "TcpLoopbackTransport",
    "make_transport",
    "TRANSPORT_NAMES",
]


@dataclass(frozen=True)
class Frame:
    """One encoded protocol message in transit between two actors."""

    src: int
    dst: int
    category: str
    sent_at: float
    payload: bytes  # a complete repro.core.wire frame


class _Inbox:
    """Unbounded frame FIFO drained by one consumer task at a time.

    ``put`` appends and wakes the waiting consumer with ``set_result``,
    as an asyncio queue's ``put_nowait`` wakes its first getter, so the
    event loop runs the same callbacks in the same order.  A consumer
    cancelled while waiting leaves the frames where they are for the next
    one (an actor restarted by the supervisor).
    """

    __slots__ = ("_items", "_loop", "_waiter")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._items: deque[Frame] = deque()
        self._loop = loop
        self._waiter: asyncio.Future[None] | None = None

    def put(self, frame: Frame) -> None:
        self._items.append(frame)
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def get(self) -> Frame:
        while not self._items:
            if self._waiter is not None:
                raise RuntimeError("inbox already has a waiting consumer")
            self._waiter = self._loop.create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None
        return self._items.popleft()


class Transport(abc.ABC):
    """Frame fabric between actors; see the module docstring."""

    name: str = "abstract"

    def __init__(self) -> None:
        self.frames_posted = 0
        self.bytes_posted = 0
        self.frames_delivered = 0

    @abc.abstractmethod
    async def start(self, node_ids: Sequence[int]) -> None:
        """Bring up per-node endpoints for the given node indices."""

    @abc.abstractmethod
    def post(self, frame: Frame) -> None:
        """Enqueue a frame for delivery (synchronous, never blocks)."""

    @abc.abstractmethod
    async def get(self, ip: int) -> Frame:
        """Await the next inbound frame addressed to node ``ip``."""

    @abc.abstractmethod
    async def stop(self) -> None:
        """Tear down endpoints and in-flight machinery."""

    def in_flight(self) -> int:
        """Frames posted but not yet pulled by a destination actor."""
        return self.frames_posted - self.frames_delivered

    def _count_post(self, frame: Frame) -> None:
        self.frames_posted += 1
        self.bytes_posted += len(frame.payload)


class InProcessTransport(Transport):
    """In-memory fabric: one unbounded inbox per node, zero copies."""

    name = "inproc"

    def __init__(self) -> None:
        super().__init__()
        self._inboxes: dict[int, _Inbox] = {}

    async def start(self, node_ids: Sequence[int]) -> None:
        loop = asyncio.get_running_loop()
        self._inboxes = {ip: _Inbox(loop) for ip in node_ids}

    def post(self, frame: Frame) -> None:
        inbox = self._inboxes.get(frame.dst)
        if inbox is None:
            raise WireError(f"no inbox for destination node {frame.dst}")
        self._count_post(frame)
        inbox.put(frame)

    async def get(self, ip: int) -> Frame:
        frame = await self._inboxes[ip].get()
        self.frames_delivered += 1
        return frame

    async def stop(self) -> None:
        self._inboxes = {}


# TCP stream framing: u32 total length | i32 src | i32 dst | f64 sent_at |
# u16 category length | category utf-8 | wire-codec payload.
_TCP_HEAD = struct.Struct(">iidH")


def _tcp_pack(frame: Frame) -> bytes:
    cat = frame.category.encode("utf-8")
    body = _TCP_HEAD.pack(frame.src, frame.dst, frame.sent_at, len(cat))
    body += cat + frame.payload
    return struct.pack(">I", len(body)) + body


def _tcp_unpack(body: bytes) -> Frame:
    src, dst, sent_at, cat_len = _TCP_HEAD.unpack_from(body, 0)
    offset = _TCP_HEAD.size
    category = body[offset : offset + cat_len].decode("utf-8")
    payload = body[offset + cat_len :]
    return Frame(src=src, dst=dst, category=category, sent_at=sent_at, payload=payload)


class TcpLoopbackTransport(Transport):
    """Real sockets on 127.0.0.1: one server per node, one conn per route.

    Every node listens on an ephemeral loopback port.  Outbound frames to a
    destination are drained by one sender task per destination over a
    single shared connection (opened lazily on first use), so the fleet
    needs O(n) sockets, not O(n²).
    """

    name = "tcp"

    def __init__(self) -> None:
        super().__init__()
        self.ports: dict[int, int] = {}
        self._servers: dict[int, asyncio.AbstractServer] = {}
        self._inboxes: dict[int, _Inbox] = {}
        self._outboxes: dict[int, _Inbox] = {}
        self._senders: dict[int, asyncio.Task[None]] = {}
        self._reader_tasks: set[asyncio.Task[None]] = set()

    async def start(self, node_ids: Sequence[int]) -> None:
        loop = asyncio.get_running_loop()
        for ip in node_ids:
            self._inboxes[ip] = _Inbox(loop)
            self._outboxes[ip] = _Inbox(loop)
            server = await asyncio.start_server(
                self._make_reader(ip), "127.0.0.1", 0
            )
            self._servers[ip] = server
            self.ports[ip] = server.sockets[0].getsockname()[1]
        for ip in node_ids:
            self._senders[ip] = loop.create_task(
                self._sender(ip), name=f"tcp-sender-{ip}"
            )

    def _make_reader(self, ip: int):  # type: ignore[no-untyped-def]
        async def reader(
            stream: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            task = asyncio.current_task()
            if task is not None:
                self._reader_tasks.add(task)
            try:
                while True:
                    head = await stream.readexactly(4)
                    (length,) = struct.unpack(">I", head)
                    body = await stream.readexactly(length)
                    self._inboxes[ip].put(_tcp_unpack(body))
            except (asyncio.IncompleteReadError, ConnectionResetError):
                pass
            finally:
                if task is not None:
                    self._reader_tasks.discard(task)
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()

        return reader

    async def _sender(self, dst: int) -> None:
        writer: asyncio.StreamWriter | None = None
        try:
            while True:
                frame = await self._outboxes[dst].get()
                if writer is None:
                    _, writer = await asyncio.open_connection(
                        "127.0.0.1", self.ports[dst]
                    )
                writer.write(_tcp_pack(frame))
                await writer.drain()
        except asyncio.CancelledError:
            raise
        finally:
            if writer is not None:
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()

    def post(self, frame: Frame) -> None:
        outbox = self._outboxes.get(frame.dst)
        if outbox is None:
            raise WireError(f"no route to destination node {frame.dst}")
        self._count_post(frame)
        outbox.put(frame)

    async def get(self, ip: int) -> Frame:
        frame = await self._inboxes[ip].get()
        self.frames_delivered += 1
        return frame

    async def stop(self) -> None:
        for task in self._senders.values():
            task.cancel()
        for task in self._senders.values():
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        # The senders' connections are closed now: readers drain to EOF and
        # exit on their own (cancelling them trips asyncio.streams'
        # connection_made callback on some Python versions).
        readers = list(self._reader_tasks)
        if readers:
            await asyncio.gather(*readers, return_exceptions=True)
        for server in self._servers.values():
            server.close()
            with contextlib.suppress(Exception):
                await server.wait_closed()
        self._servers = {}
        self._senders = {}
        self.ports = {}


#: Names accepted by :func:`make_transport` (and the hirep-serve CLI).
TRANSPORT_NAMES: tuple[str, ...] = ("inproc", "tcp")


def make_transport(name: str) -> Transport:
    """Construct a transport by name (``inproc`` or ``tcp``)."""
    if name == "inproc":
        return InProcessTransport()
    if name == "tcp":
        return TcpLoopbackTransport()
    raise ValueError(
        f"unknown transport {name!r} (choose from {', '.join(TRANSPORT_NAMES)})"
    )
