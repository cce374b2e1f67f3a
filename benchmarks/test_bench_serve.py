"""Service-plane benchmarks: live-fleet transaction throughput (in-process).

Measures steady-state tx/sec through the full serve stack — the codec at
origins and owners, relay splices, the asyncio actor loop, transport
handoff, and wall-clock telemetry — against the in-process transport,
both serialized (the determinism-guard configuration) and at
load-generator concurrency.  The fleet is built and brought up outside
the timed rounds, so ``steady_tx_per_sec`` is the median round's
transactions, not a fleet build.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import HiRepConfig
from repro.serve import LoadGenerator, ServeSystem, build_trace

_CFG = dict(network_size=32, seed=11)
_TXNS = 10
#: Timed rounds of ``_TXNS`` transactions each, after one warm-up round.
_ROUNDS = 10


@pytest.fixture
def fleet():
    """One fleet, built and brought up before anything is timed: a round
    times transactions on it, not its construction or ``up()``."""
    with ServeSystem(HiRepConfig(**_CFG)) as system:
        yield system


def test_bench_serve_serialized(benchmark, perf, fleet):
    def serialized():
        start = fleet.transactions_run
        for _ in range(_TXNS):
            fleet.run_transaction()
        return fleet.transactions_run - start

    assert benchmark.pedantic(serialized, rounds=_ROUNDS, warmup_rounds=1) == _TXNS
    if benchmark.stats is not None:  # absent under --benchmark-disable
        perf.record(
            "serve-serialized",
            {"steady_tx_per_sec": _TXNS / benchmark.stats.stats.median},
            network_size=_CFG["network_size"],
            transactions=_TXNS,
        )


def test_bench_serve_concurrent_load(benchmark, perf, fleet):
    trace = build_trace(
        "pooled", fleet.network.n, _TXNS * (_ROUNDS + 1), np.random.default_rng(3)
    )
    chunks = iter([trace[i : i + _TXNS] for i in range(0, len(trace), _TXNS)])

    def loaded():
        report = LoadGenerator(fleet, next(chunks), concurrency=4).run()
        assert report.lost == 0
        return report.completed

    assert benchmark.pedantic(loaded, rounds=_ROUNDS, warmup_rounds=1) == _TXNS
    if benchmark.stats is not None:
        perf.record(
            "serve-load",
            {"steady_tx_per_sec": _TXNS / benchmark.stats.stats.median},
            network_size=_CFG["network_size"],
            transactions=_TXNS,
            concurrency=4,
        )


def _codec_fixture():
    """A trust request over a 3-relay onion, and the keys that built it."""
    from repro.crypto.backend import get_backend
    from repro.crypto.keys import PeerKeys

    backend = get_backend("simulated")
    rng = np.random.default_rng(5)
    keys = [PeerKeys.generate(backend, rng) for _ in range(6)]
    relays = [(i, keys[i].ap) for i in range(1, 4)]
    return backend, keys, relays, _fresh_request(backend, keys, relays)


def _fresh_request(backend, keys, relays):
    """The fixture's request, built anew: no sealed value in it was ever
    encoded."""
    from repro.core.messages import TrustRequestBody, TrustValueRequest
    from repro.onion.onion import build_onion

    return TrustValueRequest(
        sealed_body=backend.encrypt(
            keys[1].sp, TrustRequestBody(subject=keys[2].node_id, nonce=3)
        ),
        requestor_sp=keys[0].sp,
        requestor_onion=build_onion(
            backend, keys[0].ap, keys[0].sr, 0, relays, seq=1
        ),
    )


def test_bench_codec_encode_decode(benchmark, perf):
    """The codec alone: one query's worth of request framing per call.

    The same request every call: after the first, each sealed value's
    bytes are spliced from the encode that wrote them."""
    from repro.core.wire import decode, encode

    _, _, _, request = _codec_fixture()

    def round_trip():
        return decode(encode(request))

    assert benchmark(round_trip) == request
    if benchmark.stats is not None:
        perf.record(
            "serve-codec",
            {"roundtrips_per_sec": 1.0 / benchmark.stats.stats.mean},
        )


def test_bench_codec_encode_decode_cold(benchmark, perf):
    """As above, but every call builds its request afresh, so each encode
    writes every sealed value instead of splicing the bytes an earlier
    encode kept (what a first send of a new onion or body costs)."""
    from repro.core.wire import decode, encode

    backend, keys, relays, request = _codec_fixture()

    def cold_round_trip():
        return decode(encode(_fresh_request(backend, keys, relays)))

    assert benchmark(cold_round_trip) == request
    if benchmark.stats is not None:
        perf.record(
            "serve-codec-cold",
            {"roundtrips_per_sec": 1.0 / benchmark.stats.stats.mean},
        )


def test_bench_codec_relay_hop(benchmark, perf):
    """What a live relay does to each frame: read the hop header, check the
    outer layer against its key, its liveness and the next hop, and splice
    the onward frame (``read_hop`` → ``OnionRouter.relay`` →
    ``relay_frame``), up to the send."""
    from repro.core.wire import decode, encode, read_hop
    from repro.onion.onion import build_onion
    from repro.onion.routing import OnionPacket, OnionRouter

    backend, keys, relays, request = _codec_fixture()
    to_agent = build_onion(backend, keys[5].ap, keys[5].sr, 5, relays, seq=1)
    frame = encode(OnionPacket(to_agent.blob, request, "trust_query", 0.0))
    entry_relay = relays[-1][0]

    class Edge:
        """The network as a relay sees it: liveness, size, the send."""

        n = len(keys)
        alive = [True] * n
        sent: tuple = ()

        def send_encoded(self, src, dst, onward, category, payload):
            self.sent = (dst, onward)

    edge = Edge()
    router = OnionRouter(edge, backend)
    router.register_node(entry_relay, keys[entry_relay].ar)

    def hop():
        return router.relay(entry_relay, read_hop(frame))

    assert benchmark(hop)
    next_ip, onward_frame = edge.sent
    assert next_ip == relays[-2][0] and router.dropped == 0
    assert decode(onward_frame).message == request
    if benchmark.stats is not None:
        perf.record(
            "serve-codec-relay",
            {"relay_hops_per_sec": 1.0 / benchmark.stats.stats.mean},
        )
