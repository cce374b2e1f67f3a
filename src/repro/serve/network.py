"""The network edge of the service plane.

:class:`ServeNetwork` subclasses the simulated
:class:`~repro.net.network.P2PNetwork` so construction (bandwidth draws,
latency map, counters, handler table) is bit-identical — the rest of the
world derives from the same RNG streams either way.  Only delivery
changes: instead of scheduling a discrete event, :meth:`send` encodes the
payload through the real wire codec and posts the resulting frame on the
transport; the destination's actor pulls it, decodes it, and feeds the
registered handler.  A relay hop is the exception: at a node whose
handler is the onion router, the frame is offered to the router first,
which forwards it as a splice of its own bytes without decoding it.
Every frame, encoded or spliced, leaves through :meth:`send_encoded`.
Observers keep working — they hook the send path before the frame is
posted, exactly where the simulator hooks them.  A frame the codec
refuses is dropped and counted, never raised into the actor.  Fault
planes are refused (``serve``'s row of
:data:`~repro.core.registry.CAPABILITIES`): the live send path has no
fault hook (actor kill/restart goes through the supervisor instead).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.wire import decode, encode, read_hop
from repro.errors import NetworkError, UnknownNodeError, WireError
from repro.net.latency import LatencyModel
from repro.net.messages import Category, NetMessage
from repro.net.network import Handler, P2PNetwork
from repro.net.topology import Topology
from repro.obs.clock import WallClock
from repro.onion.routing import OnionRouter
from repro.serve.transport import Frame, Transport

__all__ = ["ServeNetwork"]


class ServeNetwork(P2PNetwork):
    """P2PNetwork whose delivery rides a real transport, not the DES queue."""

    executor = "serve"

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        *,
        engine: WallClock,
        transport: Transport,
        latency_model: LatencyModel | None = None,
        model_transmission: bool = True,
    ) -> None:
        super().__init__(
            topology,
            rng,
            engine=engine,  # type: ignore[arg-type]
            latency_model=latency_model,
            model_transmission=model_transmission,
        )
        self.transport = transport
        self.frames_sent = 0
        self.frames_received = 0
        #: The onion router of each node whose handler is its ``handle``.
        self._relays: dict[int, OnionRouter] = {}

    @property
    def frames_rejected(self) -> int:
        """Inbound frames dropped as malformed before any handler ran: here
        or by the transport, which keeps the one counter."""
        return self.transport.frames_rejected

    def register_handler(self, index: int, handler: Handler) -> None:
        """Attach ``index``'s handler.  When it is an onion router's
        ``handle``, that router is also offered each inbound frame as a
        relay hop before the frame is decoded (:meth:`deliver_frame`)."""
        super().register_handler(index, handler)
        if getattr(handler, "__func__", None) is OnionRouter.handle:
            self._relays[index] = handler.__self__  # type: ignore[attr-defined]
        else:
            self._relays.pop(index, None)

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        *,
        category: str = Category.CONTROL,
        count: bool = True,
        size_bytes: int | None = None,
    ) -> NetMessage:
        """Encode ``payload`` and post it on the transport.

        ``size_bytes`` is the sender's ``wire_size(payload)`` when it
        already paid for one (the onion router does); the message is
        charged the true encoded frame length either way — on this plane
        the bytes are real.
        """
        return self.send_encoded(
            src, dst, encode(payload, size_bytes), category, payload, count=count
        )

    def send_encoded(
        self,
        src: int,
        dst: int,
        frame: bytes,
        category: str,
        payload: Any,
        *,
        count: bool = True,
    ) -> NetMessage:
        """Post an encoded ``frame`` of ``payload`` on the transport.

        Mirrors the simulator's send contract: offline senders raise,
        the counter charges the sender whether or not the destination is
        up, and observers see every message, with ``payload`` as the value
        it carries.  Every frame the live plane sends comes through here:
        :meth:`send`'s, and a relay's spliced hop (``OnionRouter.relay``).
        """
        # is_online(src) and is_online(dst), inlined as P2PNetwork.send has
        # them: this runs once per hop.
        if not 0 <= src < self.n:
            raise UnknownNodeError(src)
        if not self.alive[src]:
            raise NetworkError(f"node {src} is offline and cannot send")
        if not 0 <= dst < self.n:
            raise UnknownNodeError(dst)
        now = self.engine.now
        msg = NetMessage(src, dst, payload, category, len(frame), now)
        if count:
            self.counter.count(category)
        for observer in self.observers:
            observer(msg)
        self.transport.post(Frame(src, dst, category, now, frame))
        self.frames_sent += 1
        return msg

    def deliver_frame(self, frame: Frame) -> None:
        """Decode an inbound frame and hand it to the registered handler.

        Called from the destination actor's inbox drain.  Offline destinations
        drop the frame on the floor (cost already charged at send time),
        matching the simulator's delivery semantics.  At a node whose
        handler is an onion router, a frame read as a relay hop goes to
        ``OnionRouter.relay`` undecoded, and is forwarded or dropped by
        the rules ``handle`` applies.  A frame naming a node outside the
        fleet, or one the codec refuses — at decode, or when the onion's
        owner opens a malformed sealed message — is dropped and counted in
        ``frames_rejected``; no protocol handler has run on it.
        """
        if not (0 <= frame.src < self.n and 0 <= frame.dst < self.n):
            self.transport.frames_rejected += 1
            return
        if not self.alive[frame.dst]:
            return
        handler = self._handlers.get(frame.dst)
        if handler is None:
            return
        payload = frame.payload
        router = self._relays.get(frame.dst)
        hop = None
        if router is not None:
            hop = read_hop(payload)
            if hop is not None and router.relay(frame.dst, hop):
                self.frames_received += 1
                return
        try:
            handler(
                NetMessage(
                    frame.src,
                    frame.dst,
                    decode(payload, hop),
                    frame.category,
                    len(payload),
                    frame.sent_at,
                )
            )
        except WireError:
            self.transport.frames_rejected += 1
        else:
            self.frames_received += 1

    def run(self, until: float | None = None) -> int:
        """No event queue to drain: actors deliver as frames arrive."""
        return 0
