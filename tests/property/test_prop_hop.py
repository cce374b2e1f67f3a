"""Property test: the object kernel's relay hop against the rules it replaced.

``P2PNetwork.send`` validates each index once inline and computes the FIFO
horizon without ``transmission_ms`` / ``max``; ``OnionRouter.handle``
reads liveness directly and counts a relay's onward packet size down in
place; ``peel`` returns a shared delivered outcome and skips the marker
comparison for sealed inners.  The rules as they stood before are kept
here — :class:`OracleNetwork.send`, :class:`OracleRouter.handle` and
:func:`oracle_peel` — and are the oracle.

Hypothesis picks N, a handful of sends (onions of depth 0–6 whose core is
the real fake onion, a forged ``next_ip ≥ 0`` layer around the marker or
around junk, sometimes misrouted; plain datagrams, some from or to
unknown nodes, some uncounted or sized), liveness flips of relays, owners
and senders while messages are in flight, ``model_transmission`` on or
off, and a ``FaultPlane`` of loss, latency spikes and sometimes a timed
partition, installed or not.  Both worlds run the same case from the same
seeds and must agree on the observer and fault-observer streams, every
endpoint call ``(ip, message, sent_at, now)``, the errors raised,
``counter.by_category``, the router's ``delivered`` / ``dropped``,
``_link_free_at``, the clock, and the fault plane's and the network's
generator states.

Shown to fail under each of these seeded mutations: the count-down
(``onward_size``) a step short or long or taken without its sealed test,
the onward packet's ``nbytes`` or the first packet's not carried; the
onward packet stamped with ``now`` for ``sent_at``; ``send``
checking ``dst`` before the sender's liveness, skipping the ``src``
bounds check, or letting ``dst == n`` through; a default size of 0; the
FIFO horizon ignored; an offline destination reserving its link; the link
sized by the sender's bandwidth or in bytes; the counter charged only for
an online destination; the destination's liveness assumed; the fault
plane asked at time 0; a spike left out of the arrival; ``peel`` without
the marker test, or with ``next_ip`` and ``inner`` swapped.  The
unit tests (``test_net_network.py``, ``test_onion_onion.py``,
``test_net_substrate.py``, ``test_core_wire.py``) catch what this cannot
see: the marker test narrowed to ``str`` or asking an ``Envelope``, a
fresh delivered outcome per call, a ``WireSlice`` that encodes the
marker or refuses every string, a depth table without length prefixes,
and ``alive`` left writable or copied.  Survivors, all equivalent here:
dropping the router's liveness re-check (a handler only runs for an
online node), the count-down's test that an ``Envelope`` was peeled and
its trade of blob fields (every inbound blob here is an ``Envelope``,
and a forged core's field equals a one-layer blob's; the RSA cases of
``test_prop_relay_splice.py`` kill both), ``>=`` for ``>`` in the
horizon (a tie gives the same time), and two depth-table growths that the
64-byte block padding absorbs (without the IP's 4 bytes, or from the
field with its 2-byte prefix).

A second property pins the depth a built onion carries (``Onion.layers``):
for generated paths under both backends, a built and a resealed onion
carry the walked depth of their blob on the simulated backend and nothing under
RSA (whose depth stays the length model), a decoded one carries nothing,
and the size ``OnionRouter.send`` charges the first hop — and
``onion_size`` — equal the walked ``wire_size`` for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import SignedResult, TransactionReport, TrustValueRequest
from repro.core.wire import SEAL_BLOCK_BYTES, _depth_field, decode, encode, onion_size, wire_size
from repro.crypto.backend import get_backend
from repro.crypto.simulated import Envelope
from repro.crypto.keys import PeerKeys
from repro.errors import NetworkError, OnionPeelError
from repro.net.faults import Bisection, FaultPlane, LatencySpike, MessageLoss
from repro.net.messages import Category, NetMessage
from repro.net.network import P2PNetwork
from repro.net.topology import ring_lattice
from repro.onion.onion import Onion, OnionLayer, build_onion, reseal
from repro.onion.routing import OnionPacket, OnionRouter

BACKEND = get_backend("simulated")
MAX_N = 12
KEYS = [PeerKeys.generate(BACKEND, np.random.default_rng(2006 + i)) for i in range(MAX_N)]
MARKER = "__fake_onion__"
RSA = get_backend("rsa")
RSA_KEYS = [PeerKeys.generate(RSA, np.random.default_rng(4006 + i)) for i in range(4)]


# ------------------------------------------------------------------ the oracle


def onion_depth(blob: Any) -> int:
    """Sealed layers in an onion blob, walked to the core; an RSA blob's
    depth is estimated from its length, and anything else counts one."""
    depth, current = 0, blob
    while isinstance(current, Envelope):
        depth += 1
        if not isinstance(current.payload, OnionLayer):
            break
        current = current.payload.inner
    if depth:
        return depth
    return max(1, len(current) // (2 * SEAL_BLOCK_BYTES)) if type(current) is bytes else 1


@dataclass(frozen=True)
class OracleOutcome:
    delivered: bool
    next_ip: int | None
    inner: Any | None


def oracle_peel(backend, ar, blob):
    """``peel`` as it stood: a frozen dataclass per hop, ``==`` on every inner."""
    try:
        layer = backend.decrypt(ar, blob)
    except Exception as exc:
        raise OnionPeelError(f"cannot peel onion layer: {exc}") from exc
    if not isinstance(layer, OnionLayer):
        raise OnionPeelError("peeled data is not an onion layer")
    if layer.next_ip < 0 or layer.inner == MARKER:
        return OracleOutcome(delivered=True, next_ip=None, inner=None)
    return OracleOutcome(delivered=False, next_ip=layer.next_ip, inner=layer.inner)


class OracleNetwork(P2PNetwork):
    """``send`` as it stood: two ``is_online`` calls, ``transmission_ms``, ``max``."""

    def send(self, src, dst, payload, *, category=Category.CONTROL, count=True, size_bytes=None):
        if not self.is_online(src):
            raise NetworkError(f"node {src} is offline and cannot send")
        dst_online = self.is_online(dst)
        msg = NetMessage(
            src=src,
            dst=dst,
            payload=payload,
            category=category,
            sent_at=self.engine.now,
        )
        if size_bytes is not None:
            msg.size_bytes = size_bytes
        if count:
            self.counter.count(category)
        for observer in self.observers:
            observer(msg)
        extra_latency = 0.0
        if self.faults is not None:
            verdict = self.faults.on_send(msg, self.engine.now)
            if verdict.drop:
                for fault_observer in self.fault_observers:
                    fault_observer("drop", msg, 0.0)
                return msg
            extra_latency = verdict.extra_latency_ms
            if extra_latency > 0.0:
                for fault_observer in self.fault_observers:
                    fault_observer("delay", msg, extra_latency)
        arrival = self.engine.now + self.latency.between(src, dst) + extra_latency
        if self.model_transmission:
            transmit = self.transmission_ms(self._kbps[dst], msg.size_bytes)
            if dst_online:
                start = max(arrival, self._link_free_at.get(dst, 0.0))
                done = start + transmit
                self._link_free_at[dst] = done
            else:
                done = arrival + transmit
        else:
            done = arrival
        self.engine.schedule(done, lambda: self._deliver(msg))
        return msg


class OracleRouter(OnionRouter):
    """``handle`` as it stood: keyword packets, ``is_online``, and each onward
    packet sized from its blob's full depth and its message."""

    def handle(self, msg):
        if not isinstance(msg.payload, OnionPacket):
            return False
        packet = msg.payload
        here = msg.dst
        ar = self._keys.get(here)
        if ar is None:
            self.dropped += 1
            return True
        try:
            outcome = oracle_peel(self.backend, ar, packet.blob)
        except OnionPeelError:
            self.dropped += 1
            return True
        if outcome.delivered:
            message = packet.message
            if isinstance(message, self._wire_slice):
                message = message.unpack()
            self.delivered += 1
            endpoint = self._endpoints.get(here)
            if endpoint is not None:
                endpoint(message, packet.sent_at)
            return True
        inner = OnionPacket(
            blob=outcome.inner,
            message=packet.message,
            category=packet.category,
            sent_at=packet.sent_at,
        )
        if not self.network.is_online(here):
            self.dropped += 1
            return True
        self.network.send(
            here,
            int(outcome.next_ip),
            inner,
            category=packet.category,
            size_bytes=_depth_field(onion_depth(inner.blob)) + wire_size(inner.message),
        )
        return True


# ------------------------------------------------------------------- one case


@dataclass(frozen=True)
class Send:
    at: float
    src: int
    message: Any
    category: str
    onion: Onion | None = None  # None: a plain datagram to ``dst``
    dst: int = 0
    count: bool = True
    size_bytes: int | None = None


@dataclass(frozen=True)
class Case:
    n: int
    seed: int
    transmission: bool
    sends: tuple[Send, ...]
    flips: tuple[tuple[float, int, bool], ...]
    unkeyed: frozenset[int]
    #: (loss, spike prob, spike ms, jitter ms, partition window or None, seed)
    faults: tuple[float, float, float, float, tuple[float, float] | None, int] | None


@dataclass
class Log:
    sends: list = field(default_factory=list)
    faults: list = field(default_factory=list)
    endpoint: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def forged_onion(owner: int, relays: list[int], core: OnionLayer) -> Onion:
    """An onion around a hand-made core layer, wrapped like ``build_onion``."""
    blob = BACKEND.encrypt(KEYS[owner].ap, core)
    prev = owner
    for ip in relays:
        blob = BACKEND.encrypt(KEYS[ip].ap, OnionLayer(prev, blob))
        prev = ip
    return Onion(first_hop=prev, blob=blob, seq=1, signature=None)


def real_onion(owner: int, relays: list[int]) -> Onion:
    keys = KEYS[owner]
    return build_onion(
        BACKEND, keys.ap, keys.sr, owner, [(ip, KEYS[ip].ap) for ip in relays], seq=1
    )


def play(case: Case, network_cls: type, router_cls: type) -> dict[str, Any]:
    net = network_cls(
        ring_lattice(case.n, k=1),
        np.random.default_rng(case.seed),
        model_transmission=case.transmission,
    )
    router = router_cls(net, BACKEND)
    engine = net.engine
    log = Log()
    net.observers.append(
        lambda m: log.sends.append((m.src, m.dst, m.category, m.size_bytes, m.sent_at))
    )
    net.fault_observers.append(
        lambda kind, m, extra: log.faults.append((kind, m.src, m.dst, m.size_bytes, extra))
    )
    for ip in range(case.n):
        if ip not in case.unkeyed:
            router.register_node(ip, KEYS[ip].ar)
        router.set_endpoint(
            ip, lambda m, t, ip=ip: log.endpoint.append((ip, m, t, engine.now))
        )
        net.register_handler(ip, router.handle)
    plane = None
    if case.faults is not None:
        loss, spike, spike_ms, jitter_ms, cut, seed = case.faults
        models = [MessageLoss(loss), LatencySpike(spike, spike_ms, jitter_ms)]
        if cut is not None:  # a partition for a while: it reads the send time
            models.append(Bisection(range(0, case.n, 2), start_ms=cut[0], end_ms=cut[1]))
        plane = FaultPlane(models, seed=seed).install(net)
    for at, node, online in case.flips:
        engine.schedule(at, lambda node=node, online=online: net.set_online(node, online))
    for s in case.sends:

        def inject(s: Send = s) -> None:
            try:
                if s.onion is not None:
                    router.send(s.src, s.onion, s.message, category=s.category)
                else:
                    net.send(
                        s.src,
                        s.dst,
                        s.message,
                        category=s.category,
                        count=s.count,
                        size_bytes=s.size_bytes,
                    )
            except NetworkError as exc:
                log.errors.append((engine.now, type(exc).__name__, str(exc)))

        engine.schedule(s.at, inject)
    net.run()
    return {
        "sends": log.sends,
        "faults": log.faults,
        "endpoint": log.endpoint,
        "errors": log.errors,
        "by_category": dict(net.counter.by_category),
        "router": (router.delivered, router.dropped),
        "link_free_at": dict(net._link_free_at),
        "clock": (engine.now, engine.events_processed),
        "network_rng": net.rng.bit_generator.state,
        "plane": None
        if plane is None
        else (plane.rng.bit_generator.state, plane.stats.as_dict()),
    }


# ------------------------------------------------------------------ strategy

TIMES = st.floats(0.0, 400.0)
LATER = st.floats(0.0, 800.0)  # liveness flips and partitions outlast the sends
CATEGORIES = st.sampled_from(
    [Category.TRUST_QUERY, Category.TRUST_RESPONSE, Category.TRANSACTION_REPORT]
)


@st.composite
def cases(draw) -> Case:
    n = draw(st.integers(3, MAX_N))
    nodes = st.integers(0, n - 1)
    sends, path_nodes = [], set()
    for _ in range(draw(st.integers(1, 4))):
        src = draw(nodes)
        message = draw(
            st.sampled_from(
                [
                    "ping",
                    TransactionReport(SignedResult(b"s" * 20, 0.5, 7), None, b"r" * 20),
                    TrustValueRequest(None, KEYS[src].sp, real_onion(src, [])),
                    TrustValueRequest(
                        None, KEYS[src].sp, real_onion(src, [(src + 1) % n, (src + 2) % n])
                    ),
                ]
            )
        )
        at, category = draw(TIMES), draw(CATEGORIES)
        if draw(st.integers(0, 3)) == 0:  # a plain datagram
            sends.append(
                Send(
                    at,
                    draw(st.integers(-1, n)),  # -1 and n name nobody
                    message,
                    category,
                    dst=draw(st.integers(-1, n)),
                    count=draw(st.booleans()),
                    size_bytes=draw(st.none() | st.integers(1, 4_000)),
                )
            )
            continue
        owner = draw(nodes)
        others = [i for i in range(n) if i != owner]
        relays = draw(st.lists(st.sampled_from(others), unique=True, max_size=min(6, n - 1)))
        core = draw(st.sampled_from(["real", "real", "marker", "junk"]))
        if core == "real":
            onion = real_onion(owner, relays)
        else:
            inner = MARKER if core == "marker" else "junk"
            onion = forged_onion(owner, relays, OnionLayer(draw(nodes), inner))
        if draw(st.integers(0, 5)) == 0:  # misrouted: nobody there can peel it
            onion = replace(onion, first_hop=draw(nodes))
        path_nodes.update([owner, *relays])
        sends.append(Send(at, src, message, category, onion=onion))
    flip_nodes = st.sampled_from(sorted(path_nodes)) | nodes if path_nodes else nodes
    flips = draw(st.lists(st.tuples(LATER, flip_nodes, st.booleans()), max_size=6))
    window = st.tuples(TIMES, LATER).map(sorted).map(tuple)
    faults = draw(
        st.none()
        | st.tuples(
            st.floats(0.0, 0.4),
            st.floats(0.0, 0.5),
            st.floats(0.0, 200.0),
            st.floats(0.0, 50.0),
            st.none() | window,
            st.integers(0, 2**16),
        )
    )
    return Case(
        n=n,
        seed=draw(st.integers(0, 2**16)),
        transmission=draw(st.booleans()),
        sends=tuple(sends),
        flips=tuple(flips),
        unkeyed=frozenset(draw(st.lists(nodes, max_size=2))),
        faults=faults,
    )


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_hop_matches_the_rules_it_replaced(case):
    assert play(case, P2PNetwork, OnionRouter) == play(case, OracleNetwork, OracleRouter)


@settings(max_examples=80, deadline=None)
@given(
    rsa=st.booleans(),
    relays=st.lists(st.integers(1, 3), unique=True, max_size=3),
    seq=st.integers(1, 2**31),
    bump=st.integers(1, 3),
    message=st.sampled_from(
        [
            "ping",
            TransactionReport(SignedResult(b"s" * 20, 0.5, 7), None, b"r" * 20),
            TrustValueRequest(None, KEYS[0].sp, real_onion(0, [1, 2])),
        ]
    ),
)
def test_first_hop_size_reads_the_depth_a_build_records(rsa, relays, seq, bump, message):
    backend, keys = (RSA, RSA_KEYS) if rsa else (BACKEND, KEYS)
    relay_keys = [(ip, keys[ip].ap) for ip in relays]
    built = build_onion(backend, keys[0].ap, keys[0].sr, 0, relay_keys, seq=seq)
    resealed = reseal(backend, built, keys[0].sr, seq + bump)
    decoded = decode(encode(resealed))
    onions = (built, resealed, decoded)
    depth = 0 if rsa else onion_depth(built.blob)
    assert depth in (0, len(relays) + 1)
    assert [o.layers for o in onions] == [depth, depth, 0]
    net = P2PNetwork(ring_lattice(MAX_N, k=1), np.random.default_rng(seq))
    router = OnionRouter(net, backend)
    charged: list[int] = []
    net.observers.append(lambda m: charged.append(m.size_bytes))
    for onion in onions:
        router.send(5, onion, message, category=Category.TRUST_QUERY)
    walked = [
        wire_size(OnionPacket(o.blob, message, Category.TRUST_QUERY, 0.0)) for o in onions
    ]
    assert charged == walked
    assert [onion_size(o) for o in onions] == [onion_size(replace(o)) for o in onions]
