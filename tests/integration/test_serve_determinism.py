"""Determinism guard: the live service replays the simulator bit for bit.

With the in-process transport, a serialized load (one transaction at a
time, drained between transactions), and the same seed, the service
plane makes the same RNG draws as the discrete-event simulator — so
per-transaction outcomes must match field for field (wall-clock response
times excepted); the comparison is the generated executor test's ``check``
(tests/property/test_prop_executors.py).  A second guard pins TCP loopback
against in-process: the transport must never change protocol behavior.  A
third pins the bytes of every frame a serialized run posts.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.config import HiRepConfig
from repro.obs.clock import WallClock
from repro.serve import LoadGenerator, ServeSystem, build_trace
from repro.serve.transport import InProcessTransport
from tests.property.test_prop_executors import case, check

TRANSACTIONS = 10


def outcome_key(outcome):
    """The fields that must match exactly across backends."""
    return (
        outcome.index,
        outcome.requestor,
        outcome.provider,
        outcome.answered,
        outcome.asked,
        outcome.trust_messages,
        outcome.total_messages,
    )


@pytest.fixture
def config():
    return HiRepConfig(network_size=24, seed=7)


def test_serve_matches_simulator_transaction_for_transaction(config):
    ran = check(case(dataclasses.asdict(config), transactions=TRANSACTIONS))
    assert set(ran) == {"hirep", "hirep-array", "serve"}
    assert ran["serve"].drain_per_tx  # serialized mode: drained accounting


def test_tcp_loopback_matches_inproc(config):
    results = {}
    for transport in ("inproc", "tcp"):
        with ServeSystem(config, transport=transport) as system:
            results[transport] = [
                system.run_transaction() for _ in range(TRANSACTIONS)
            ]

    for inproc_out, tcp_out in zip(results["inproc"], results["tcp"]):
        assert outcome_key(inproc_out) == outcome_key(tcp_out)
        assert inproc_out.estimate == pytest.approx(tcp_out.estimate, abs=1e-9)


def test_same_seed_same_fleet_same_outcomes(config):
    runs = []
    for _ in range(2):
        with ServeSystem(config) as system:
            runs.append([system.run_transaction() for _ in range(TRANSACTIONS)])
    for a, b in zip(runs[0], runs[1]):
        assert outcome_key(a) == outcome_key(b)
        assert a.estimate == b.estimate


#: SHA-256 over every frame a serialized 32-peer, seed-2006, 20-transaction
#: in-process run posts, with the clock pinned.  Computed when every relay
#: still decoded, peeled and re-encoded its packet as objects: a relay's
#: splice (``repro.core.wire.relay_frame``) must write the same bytes.
FRAME_DIGEST = "bd38fadacd4326b77f53a5108506689918d2264e59591aea2f13c8d2f49ee311"


def test_posted_frames_are_byte_identical_to_the_pin(monkeypatch):
    """Each posted ``(src, dst, category, sent_at)`` as its ``repr``, then
    the frame's bytes, into one SHA-256: 180 frames a transaction."""
    digest = hashlib.sha256()
    post = InProcessTransport.post

    def recording_post(self, frame):
        digest.update(repr((frame.src, frame.dst, frame.category, frame.sent_at)).encode())
        digest.update(frame.payload)
        post(self, frame)

    monkeypatch.setattr(WallClock, "now", property(lambda self: 1000.0))
    monkeypatch.setattr(InProcessTransport, "post", recording_post)
    with ServeSystem(HiRepConfig(network_size=32, seed=2006), transport="inproc") as system:
        for _ in range(20):
            system.run_transaction()
        assert system.transport.frames_posted == 3_600
    assert digest.hexdigest() == FRAME_DIGEST


#: SHA-256 over every frame a two-client ``LoadGenerator`` run posts:
#: pooled trace, 32 peers, seed 2006, clock pinned.  The serialized pin
#: above cannot see a change in how two clients' frames interleave.
CONCURRENT_FRAME_DIGEST = "beca8f4a3fdf3d67ec86153dff572254d9430cb409dbcbead64c542b2d4b6933"


def test_concurrently_posted_frames_are_byte_identical_to_the_pin(monkeypatch):
    """As the serialized pin, but two transactions in flight at once: the
    order in which the event loop runs actors is part of what is hashed."""
    digest = hashlib.sha256()
    post = InProcessTransport.post

    def recording_post(self, frame):
        digest.update(repr((frame.src, frame.dst, frame.category, frame.sent_at)).encode())
        digest.update(frame.payload)
        post(self, frame)

    monkeypatch.setattr(WallClock, "now", property(lambda self: 1000.0))
    monkeypatch.setattr(InProcessTransport, "post", recording_post)
    with ServeSystem(HiRepConfig(network_size=32, seed=2006), transport="inproc") as system:
        trace = build_trace("pooled", 32, 20, np.random.default_rng(2006))
        report = LoadGenerator(system, trace, concurrency=2).run()
        assert (report.completed, report.lost) == (20, 0)
        assert system.transport.frames_posted == 3_600
    assert digest.hexdigest() == CONCURRENT_FRAME_DIGEST
