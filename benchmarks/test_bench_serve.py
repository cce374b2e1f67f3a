"""Service-plane benchmarks: live-fleet transaction throughput (in-process).

Measures end-to-end tx/sec through the full serve stack — codec encode/
decode on every message, the asyncio actor loop, transport handoff, and
wall-clock telemetry — against the in-process transport, both serialized
(the determinism-guard configuration) and at load-generator concurrency.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import HiRepConfig
from repro.serve import LoadGenerator, ServeSystem, build_trace

_CFG = dict(network_size=32, seed=11)
_TXNS = 10


def test_bench_serve_serialized(benchmark, perf):
    def serialized():
        with ServeSystem(HiRepConfig(**_CFG)) as system:
            for _ in range(_TXNS):
                system.run_transaction()
            return system.transactions_run

    assert benchmark(serialized) == _TXNS
    if benchmark.stats is not None:  # absent under --benchmark-disable
        perf.record(
            "serve-serialized",
            {"tx_per_sec": _TXNS / benchmark.stats.stats.mean},
            network_size=_CFG["network_size"],
            transactions=_TXNS,
        )


def test_bench_serve_concurrent_load(benchmark, perf):
    def loaded():
        with ServeSystem(HiRepConfig(**_CFG)) as system:
            trace = build_trace(
                "pooled", system.network.n, _TXNS, np.random.default_rng(3)
            )
            report = LoadGenerator(system, trace, concurrency=4).run()
            assert report.lost == 0
            return report.completed

    assert benchmark(loaded) == _TXNS
    if benchmark.stats is not None:
        perf.record(
            "serve-load",
            {"tx_per_sec": _TXNS / benchmark.stats.stats.mean},
            network_size=_CFG["network_size"],
            transactions=_TXNS,
            concurrency=4,
        )


def _codec_fixture():
    """A trust request over a 3-relay onion, and the keys that built it."""
    from repro.core.messages import TrustRequestBody, TrustValueRequest
    from repro.crypto.backend import get_backend
    from repro.crypto.keys import PeerKeys
    from repro.onion.onion import build_onion

    backend = get_backend("simulated")
    rng = np.random.default_rng(5)
    keys = [PeerKeys.generate(backend, rng) for _ in range(6)]
    relays = [(i, keys[i].ap) for i in range(1, 4)]
    request = TrustValueRequest(
        sealed_body=backend.encrypt(
            keys[1].sp, TrustRequestBody(subject=keys[2].node_id, nonce=3)
        ),
        requestor_sp=keys[0].sp,
        requestor_onion=build_onion(
            backend, keys[0].ap, keys[0].sr, 0, relays, seq=1
        ),
    )
    return backend, keys, relays, request


def test_bench_codec_encode_decode(benchmark, perf):
    """The codec alone: one query's worth of request framing per call."""
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


def test_bench_codec_relay_hop(benchmark, perf):
    """What a relay does to each frame: decode → peel one layer → re-encode,
    sizing the onward packet as ``OnionRouter.handle`` does."""
    from repro.core.wire import decode, encode, packet_size
    from repro.onion.onion import build_onion, peel
    from repro.onion.routing import OnionPacket

    backend, keys, relays, request = _codec_fixture()
    to_agent = build_onion(backend, keys[5].ap, keys[5].sr, 5, relays, seq=1)
    frame = encode(OnionPacket(to_agent.blob, request, "trust_query", 0.0))
    entry_relay = keys[relays[-1][0]].ar

    def hop():
        inbound = decode(frame)
        outcome = peel(backend, entry_relay, inbound.blob)
        onward = OnionPacket(
            outcome.inner, inbound.message, inbound.category, inbound.sent_at
        )
        return outcome.next_ip, encode(onward, packet_size(onward, inbound))

    next_ip, onward_frame = benchmark(hop)
    assert next_ip == relays[-2][0]
    assert decode(onward_frame).message == request
    if benchmark.stats is not None:
        perf.record(
            "serve-codec-relay",
            {"relay_hops_per_sec": 1.0 / benchmark.stats.stats.mean},
        )
