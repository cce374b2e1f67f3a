"""The simulated P2P network.

:class:`P2PNetwork` adds delivery to the shared per-node store
(:class:`~repro.net.substrate.Substrate`: topology, bandwidth, liveness,
latency map, message counter): the discrete-event engine, per-node
handlers, wiretaps, the fault plane and FIFO access links.  Its one
delivery primitive is :meth:`send` — direct IP unicast between *any* two
online nodes (the underlying Internet; onion relays and agents are
addressed this way).

Upper layers register a per-node handler with :meth:`register_handler`; the
network schedules ``handler(message)`` after the sampled hop latency *plus*
the serialization time of the message on the destination's access link.
Access links are modelled as FIFO queues: back-to-back messages to the same
node queue behind each other, which is what makes flooding-based polling
slow in practice (hundreds of vote responses funnel into one downlink) and
is the congestion effect hiREP's O(C) design avoids.  Set
``model_transmission=False`` to disable and get pure propagation delay.

Messages to offline nodes are counted (the sender spent the traffic) but
silently dropped, matching how UDP-style P2P deployments behave.

An optional :class:`~repro.net.faults.FaultPlane` (``network.faults``)
intercepts every send: injected drops still pay the counter (the sender
spent the bandwidth) but never schedule a delivery, and injected latency
spikes are added before the FIFO serialization step.  Every intervention
is announced to ``network.fault_observers`` (``("drop"|"delay", msg,
extra_ms)``), which is how injected failures appear on the same telemetry
timeline as deliveries (see :mod:`repro.obs`).  With no plane installed
the send path is byte-for-byte the reliable one.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from repro.errors import NetworkError, UnknownNodeError
from repro.net.latency import LatencyModel
from repro.net.messages import DEFAULT_MESSAGE_BYTES, Category, NetMessage
from repro.net.node import BandwidthProfile, DEFAULT_BANDWIDTH_PROFILE
from repro.net.substrate import Substrate
from repro.net.topology import Topology
from repro.sim.engine import SimEngine

__all__ = ["P2PNetwork"]

Handler = Callable[[NetMessage], None]

#: Fault wiretap: (kind, message, extra_latency_ms); kind is "drop"/"delay".
FaultObserver = Callable[[str, NetMessage, float], None]


class P2PNetwork(Substrate):
    """Simulated unstructured P2P network over a fixed topology."""

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        *,
        engine: SimEngine | None = None,
        latency_model: LatencyModel | None = None,
        bandwidth_profile: BandwidthProfile = DEFAULT_BANDWIDTH_PROFILE,
        model_transmission: bool = True,
    ) -> None:
        super().__init__(
            topology,
            rng,
            latency_model=latency_model,
            bandwidth_profile=bandwidth_profile,
            model_transmission=model_transmission,
        )
        self.engine = engine if engine is not None else SimEngine()
        #: Optional fault-injection plane (see repro.net.faults); installed
        #: via FaultPlane.install(network).  None = perfectly reliable.
        self.faults = None
        self._link_free_at: dict[int, float] = {}
        #: Passive wiretaps: called with every NetMessage at send time.
        #: Used by the §4.2.4 traffic-analysis adversary — observers see
        #: (src, dst, category, size), never payload plaintext.
        self.observers: list[Handler] = []
        #: Fault-plane wiretaps: called as ``(kind, msg, extra_ms)`` with
        #: kind ``"drop"`` (message never delivered; extra_ms 0) or
        #: ``"delay"`` (latency spike of extra_ms injected).  Consulted
        #: only when a fault plane is installed, so the reliable send path
        #: pays nothing for them.
        self.fault_observers: list[FaultObserver] = []
        self._handlers: dict[int, Handler] = {}

    def _departing(self, nodes: Iterable[int]) -> None:
        # A departing node abandons its access link: in-flight deliveries
        # are dropped on arrival, so the FIFO horizon they reserved must
        # not outlive the session — otherwise a rejoining node queues new
        # traffic behind phantom serialization of messages it never got.
        for node in nodes:
            self._link_free_at.pop(node, None)

    # -- handlers ------------------------------------------------------------

    def register_handler(self, index: int, handler: Handler) -> None:
        self.is_online(index)  # validates the index
        self._handlers[index] = handler

    # -- delivery ------------------------------------------------------------

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
        """Direct IP unicast; returns the in-flight message envelope.

        The message is charged to the counter whether or not the destination
        is online — the sender spent the bandwidth either way.  Delivery time
        is propagation latency plus FIFO serialization on the destination's
        access link (see module docstring).

        Raises :class:`~repro.errors.UnknownNodeError` for an unknown
        ``src``, then :class:`NetworkError` for an offline one, then
        ``UnknownNodeError`` for an unknown ``dst`` — each index checked
        once, in that order, before anything is charged or drawn.
        """
        # is_online(src) and is_online(dst), inlined: this runs once per hop.
        alive = self.alive
        if not 0 <= src < self.n:
            raise UnknownNodeError(src)
        if not alive[src]:
            raise NetworkError(f"node {src} is offline and cannot send")
        if not 0 <= dst < self.n:
            raise UnknownNodeError(dst)
        dst_online = alive[dst]
        now = self.engine.now
        msg = NetMessage(
            src,
            dst,
            payload,
            category,
            DEFAULT_MESSAGE_BYTES if size_bytes is None else size_bytes,
            now,
        )
        if count:
            self.counter.count(category)
        for observer in self.observers:
            observer(msg)
        extra_latency = 0.0
        if self.faults is not None:
            verdict = self.faults.on_send(msg, now)
            if verdict.drop:
                # Injected loss: cost charged above, no delivery scheduled.
                for fault_observer in self.fault_observers:
                    fault_observer("drop", msg, 0.0)
                return msg
            extra_latency = verdict.extra_latency_ms
            if extra_latency > 0.0:
                for fault_observer in self.fault_observers:
                    fault_observer("delay", msg, extra_latency)
        arrival = now + self.latency.between(src, dst) + extra_latency
        if self.model_transmission:
            # transmission_ms(bandwidth, size) and the FIFO horizon, inlined.
            transmit = (msg.size_bytes * 8.0) / self._kbps[dst]
            if dst_online:
                free = self._link_free_at.get(dst, 0.0)
                done = (free if free > arrival else arrival) + transmit
                self._link_free_at[dst] = done
            else:
                # Offline destination: the message dies in the network and is
                # dropped on arrival, so it must not reserve serialization
                # time on the (absent) access link — otherwise the node
                # rejoins queued behind messages it never received.
                done = arrival + transmit
        else:
            done = arrival
        self.engine.schedule(done, lambda: self._deliver(msg))
        return msg

    def _deliver(self, msg: NetMessage) -> None:
        if not self.alive[msg.dst]:
            return  # dropped on the floor, cost already charged
        handler = self._handlers.get(msg.dst)
        if handler is not None:
            handler(msg)

    # -- convenience ---------------------------------------------------------

    def path_latency(self, path: list[int]) -> float:
        """Sum of one-way hop latencies along an explicit node path."""
        return float(
            sum(self.latency.between(u, v) for u, v in zip(path, path[1:]))
        )

    def run(self, until: float | None = None) -> int:
        """Drain the event queue (delegates to the engine)."""
        return self.engine.run(until)
