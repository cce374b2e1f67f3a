"""Pluggable transports carrying encoded protocol frames between actors.

A transport moves :class:`Frame` objects — (src, dst, category, sent_at,
encoded payload) — from a synchronous ``post()`` at the network edge to a
per-node inbox, which hands its frames to the attached consumer (the
node's actor) from one event-loop callback per wake.  Two implementations:

* :class:`InProcessTransport` — one inbox per node; zero copies, the
  fastest fabric, and the determinism-guard reference.
* :class:`TcpLoopbackTransport` — one real TCP server socket per node on
  127.0.0.1, one shared outbound connection per destination; frames are
  length-prefixed on the stream, so every protocol byte genuinely crosses
  the host's loopback stack.

Every inbox is an :class:`_Inbox`: a deque whose drain is queued with
``loop.call_soon`` at the point where an ``asyncio`` queue would wake its
waiting getter, so the event loop runs the same callbacks in the same
order.  The TCP outboxes are :class:`_Outbox` es, drained by one awaiting
sender task each.  Both transports keep posted/delivered counters, so
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
from typing import Callable, Sequence

from repro.errors import WireError

__all__ = [
    "Frame",
    "Transport",
    "InProcessTransport",
    "TcpLoopbackTransport",
    "make_transport",
    "TRANSPORT_NAMES",
]


@dataclass(slots=True)
class Frame:
    """One encoded protocol message in transit between two actors.

    Built once per hop and never changed after: slotted and not frozen,
    so building one costs no per-field ``object.__setattr__``.
    """

    src: int
    dst: int
    category: str
    sent_at: float
    payload: bytes  # a complete repro.core.wire frame


class _Inbox:
    """A node's frame FIFO and the drain that empties it into its consumer.

    ``put`` appends and, when a consumer is attached and no drain is
    queued or running, queues :meth:`_drain` with ``loop.call_soon``: one
    ready-queue entry, where an asyncio queue's ``put_nowait`` would queue
    its waiting getter's wakeup.  The drain counts each frame delivered as
    it leaves the deque and hands it to the consumer, in posting order,
    until the deque is empty; then it runs the transport's ``on_quiet``
    if nothing is left in flight.  A consumer that raises ends the drain:
    the inbox detaches it and passes the exception to ``on_failure``.
    Detached, the inbox keeps what arrives for the next consumer, whose
    drain is queued at once if frames are waiting.
    """

    __slots__ = ("_items", "_handle", "_transport", "_loop", "_consumer", "_on_failure")

    def __init__(self, transport: Transport, loop: asyncio.AbstractEventLoop) -> None:
        self._items: deque[Frame] = deque()
        #: The queued or running drain; None while the consumer is idle.
        self._handle: asyncio.Handle | None = None
        self._transport = transport
        self._loop = loop
        self._consumer: Callable[[Frame], None] | None = None
        self._on_failure: Callable[[Exception], None] | None = None

    def put(self, frame: Frame) -> None:
        self._items.append(frame)
        if self._handle is None and self._consumer is not None:
            self._handle = self._loop.call_soon(self._drain)

    def attach(
        self, consumer: Callable[[Frame], None], on_failure: Callable[[Exception], None]
    ) -> None:
        if self._consumer is not None:
            raise RuntimeError("inbox already has a consumer")
        self._consumer = consumer
        self._on_failure = on_failure
        if self._items:
            self._handle = self._loop.call_soon(self._drain)

    def detach(self) -> None:
        self._consumer = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _drain(self) -> None:
        items = self._items
        transport = self._transport
        consumer = self._consumer
        try:
            while items and self._consumer is consumer:
                transport.frames_delivered += 1
                consumer(items.popleft())  # type: ignore[misc]
        except Exception as exc:
            on_failure = self._on_failure
            self.detach()
            assert on_failure is not None
            on_failure(exc)
        else:
            self._handle = None
        if transport.on_quiet is not None and transport.in_flight() == 0:
            transport.on_quiet()


class _Outbox:
    """Unbounded frame FIFO drained by one awaiting task (a TCP sender).

    ``put`` appends and wakes the waiting consumer with ``set_result``,
    as an asyncio queue's ``put_nowait`` wakes its first getter.
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
                raise RuntimeError("outbox already has a waiting consumer")
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
        #: Inbound frames dropped as malformed, by the transport (a stream
        #: body that is no frame, or a frame read off another node's port)
        #: or at the network edge (``ServeNetwork.frames_rejected`` reads
        #: this counter).
        self.frames_rejected = 0
        #: Run after a drain that leaves nothing in flight: the fleet's
        #: quiescence signal (``ServeSystem`` sets it).
        self.on_quiet: Callable[[], None] | None = None
        self._inboxes: dict[int, _Inbox] = {}

    @abc.abstractmethod
    async def start(self, node_ids: Sequence[int]) -> None:
        """Bring up per-node endpoints for the given node indices."""

    @abc.abstractmethod
    def post(self, frame: Frame) -> None:
        """Enqueue a frame for delivery (synchronous, never blocks)."""

    def attach(
        self,
        ip: int,
        consumer: Callable[[Frame], None],
        on_failure: Callable[[Exception], None],
    ) -> _Inbox:
        """Hand node ``ip``'s frames to ``consumer``, one call per frame in
        posting order, until it raises (see :class:`_Inbox`) or the
        returned inbox is detached."""
        inbox = self._inboxes[ip]
        inbox.attach(consumer, on_failure)
        return inbox

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

    async def start(self, node_ids: Sequence[int]) -> None:
        loop = asyncio.get_running_loop()
        self._inboxes = {ip: _Inbox(self, loop) for ip in node_ids}

    def post(self, frame: Frame) -> None:
        inbox = self._inboxes.get(frame.dst)
        if inbox is None:
            raise WireError(f"no inbox for destination node {frame.dst}")
        self._count_post(frame)
        inbox.put(frame)

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
    """The frame a stream body carries; WireError when it carries none."""
    try:
        src, dst, sent_at, cat_len = _TCP_HEAD.unpack_from(body, 0)
        offset = _TCP_HEAD.size
        category = body[offset : offset + cat_len].decode("utf-8")
    except (struct.error, UnicodeDecodeError) as exc:
        raise WireError(f"malformed stream frame: {exc}") from None
    return Frame(src, dst, category, sent_at, body[offset + cat_len :])


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
        self._outboxes: dict[int, _Outbox] = {}
        #: The local ends of the senders' connections, as their peers see them.
        self._own_ends: set[tuple[str, int]] = set()
        #: Frames read off a connection this transport did not open.  No
        #: ``post`` counted them, so each is in flight from the read on.
        self.frames_foreign = 0
        self._senders: dict[int, asyncio.Task[None]] = {}
        self._reader_tasks: set[asyncio.Task[None]] = set()

    async def start(self, node_ids: Sequence[int]) -> None:
        loop = asyncio.get_running_loop()
        for ip in node_ids:
            self._inboxes[ip] = _Inbox(self, loop)
            self._outboxes[ip] = _Outbox(loop)
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
            own = None
            try:
                while True:
                    head = await stream.readexactly(4)
                    (length,) = struct.unpack(">I", head)
                    body = await stream.readexactly(length)
                    try:
                        frame = _tcp_unpack(body)
                    except WireError:
                        self.frames_rejected += 1  # dropped; the stream reads on
                        continue
                    if frame.dst != ip:
                        # Addressed to another node: running it here would
                        # run that node's handler outside its actor.
                        self.frames_rejected += 1
                        continue
                    if own is None:  # a sender writes only once it is known
                        own = writer.get_extra_info("peername") in self._own_ends
                    if not own:
                        self.frames_foreign += 1
                    self._inboxes[ip].put(frame)
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
                    self._own_ends.add(writer.get_extra_info("sockname"))
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

    def in_flight(self) -> int:
        return super().in_flight() + self.frames_foreign

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
