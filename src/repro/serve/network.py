"""The network edge of the service plane.

:class:`ServeNetwork` subclasses the simulated
:class:`~repro.net.network.P2PNetwork` so construction (bandwidth draws,
latency map, counters, handler table) is bit-identical — the rest of the
world derives from the same RNG streams either way.  Only delivery
changes: instead of scheduling a discrete event, :meth:`send` encodes the
payload through the real wire codec and posts the resulting frame on the
transport; the destination's actor pulls it, decodes it, and feeds the
registered handler.  Observers keep working — they hook the send path
before the frame is posted, exactly where the simulator hooks them.  A
frame the codec refuses is dropped and counted, never raised into the
actor.  Fault planes are refused: the live send path has no fault hook
(actor kill/restart goes through the supervisor instead).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.wire import decode, encode
from repro.errors import ConfigError, NetworkError, UnknownNodeError, WireError
from repro.net.latency import LatencyModel
from repro.net.messages import Category, NetMessage
from repro.net.network import P2PNetwork
from repro.net.topology import Topology
from repro.serve.engine import WallEngine
from repro.serve.transport import Frame, Transport

__all__ = ["ServeNetwork"]


class ServeNetwork(P2PNetwork):
    """P2PNetwork whose delivery rides a real transport, not the DES queue."""

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        *,
        engine: WallEngine,
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
        #: Inbound frames dropped as malformed before any handler ran.
        self.frames_rejected = 0

    @property
    def faults(self) -> None:
        return None

    @faults.setter
    def faults(self, plane: object) -> None:
        if plane is not None:
            raise ConfigError(
                "the live fleet (serve) does not support fault planes; "
                "build the object kernel ('hirep') for fault-injection runs"
            )

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

        Mirrors the simulator's send contract: offline senders raise,
        the counter charges the sender whether or not the destination is
        up, and observers see every message.  ``size_bytes`` is the
        sender's ``wire_size(payload)`` when it already paid for one (the
        onion router does); the message is charged the true encoded frame
        length either way — on this plane the bytes are real.
        """
        # is_online(src) and is_online(dst), inlined as P2PNetwork.send has
        # them: this runs once per hop.
        if not 0 <= src < self.n:
            raise UnknownNodeError(src)
        if not self.alive[src]:
            raise NetworkError(f"node {src} is offline and cannot send")
        if not 0 <= dst < self.n:
            raise UnknownNodeError(dst)
        encoded = encode(payload, size_bytes)
        now = self.engine.now
        msg = NetMessage(src, dst, payload, category, len(encoded), now)
        if count:
            self.counter.count(category)
        for observer in self.observers:
            observer(msg)
        self.transport.post(Frame(src, dst, category, now, encoded))
        self.frames_sent += 1
        return msg

    def deliver_frame(self, frame: Frame) -> None:
        """Decode an inbound frame and hand it to the registered handler.

        Called from the destination's actor loop.  Offline destinations
        drop the frame on the floor (cost already charged at send time),
        matching the simulator's delivery semantics.  A frame naming a
        node outside the fleet, or one the codec refuses — at decode, or
        when the onion's owner opens a malformed sealed message — is
        dropped and counted in ``frames_rejected``; no protocol handler
        has run on it.
        """
        if not (0 <= frame.src < self.n and 0 <= frame.dst < self.n):
            self.frames_rejected += 1
            return
        if not self.alive[frame.dst]:
            return
        handler = self._handlers.get(frame.dst)
        if handler is None:
            return
        try:
            payload = frame.payload
            handler(
                NetMessage(
                    frame.src,
                    frame.dst,
                    decode(payload),
                    frame.category,
                    len(payload),
                    frame.sent_at,
                )
            )
        except WireError:
            self.frames_rejected += 1
        else:
            self.frames_received += 1

    def run(self, until: float | None = None) -> int:
        """No event queue to drain: actors deliver as frames arrive."""
        return 0
