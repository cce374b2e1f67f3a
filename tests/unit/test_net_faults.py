"""Unit tests for the fault-injection plane (repro.net.faults)."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.net.faults import (
    Bisection,
    CrashSchedule,
    CrashWindow,
    FaultPlane,
    LatencySpike,
    MessageLoss,
)
from repro.net.messages import Category
from repro.net.network import P2PNetwork
from repro.net.topology import ring_lattice


def make_net(n=20, seed=1):
    return P2PNetwork(ring_lattice(n, k=2), np.random.default_rng(seed))


def blast(net, src, dst, count, category=Category.CONTROL):
    """Send ``count`` messages and return how many were delivered."""
    got = []
    net.register_handler(dst, lambda m: got.append(m))
    for _ in range(count):
        net.send(src, dst, "payload", category=category)
    net.run()
    return got


class TestValidation:
    def test_probability_range(self):
        with pytest.raises(ConfigError):
            MessageLoss(1.5)
        with pytest.raises(ConfigError):
            MessageLoss(-0.1)
        with pytest.raises(ConfigError):
            LatencySpike(2.0, 10.0)
        with pytest.raises(ConfigError):
            LatencySpike(0.1, -1.0)

    def test_crash_window_ordering(self):
        with pytest.raises(ConfigError):
            CrashWindow(node=1, start_ms=50.0, end_ms=10.0)
        with pytest.raises(ConfigError):
            Bisection({1}, start_ms=10.0, end_ms=5.0)

    def test_plane_rejects_non_models(self):
        with pytest.raises(ConfigError):
            FaultPlane(["not a model"], seed=1)

    def test_plane_single_install(self):
        plane = FaultPlane([MessageLoss(0.1)], seed=1)
        net = make_net()
        plane.install(net)
        plane.install(net)  # idempotent on the same network
        with pytest.raises(ConfigError):
            plane.install(make_net())


class TestMessageLoss:
    def test_all_messages_dropped_at_prob_one(self):
        net = make_net()
        plane = FaultPlane([MessageLoss(1.0)], seed=3).install(net)
        assert blast(net, 0, 1, 25) == []
        assert plane.stats.drops == 25
        assert plane.stats.drops_by_category[Category.CONTROL] == 25

    def test_drops_still_charged_to_counter(self):
        net = make_net()
        FaultPlane([MessageLoss(1.0)], seed=3).install(net)
        blast(net, 0, 1, 10)
        assert net.counter.total == 10  # sender paid for every datagram

    def test_category_scoping(self):
        net = make_net()
        plane = FaultPlane(
            [MessageLoss(1.0, category=Category.TRUST_QUERY)], seed=3
        ).install(net)
        delivered = blast(net, 0, 1, 10, category=Category.CONTROL)
        assert len(delivered) == 10
        assert plane.stats.drops == 0
        assert blast(net, 0, 2, 10, category=Category.TRUST_QUERY) == []
        assert plane.stats.drops_by_category == {Category.TRUST_QUERY: 10}

    def test_seeded_determinism(self):
        outcomes = []
        for _ in range(2):
            net = make_net()
            plane = FaultPlane([MessageLoss(0.4)], seed=99).install(net)
            delivered = blast(net, 0, 1, 50)
            outcomes.append((len(delivered), plane.stats.as_dict()))
        assert outcomes[0] == outcomes[1]

    def test_different_seeds_differ(self):
        counts = set()
        for seed in range(5):
            net = make_net()
            FaultPlane([MessageLoss(0.5)], seed=seed).install(net)
            counts.add(len(blast(net, 0, 1, 40)))
        assert len(counts) > 1


class TestLatencySpike:
    def test_spike_delays_delivery(self):
        slow = make_net()
        FaultPlane([LatencySpike(1.0, 10_000.0)], seed=7).install(slow)
        fast = make_net()
        arrivals = {}
        for name, net in (("slow", slow), ("fast", fast)):
            net.register_handler(1, lambda m, name=name: arrivals.setdefault(name, net.engine.now))
            net.send(0, 1, "x")
            net.run()
        assert arrivals["slow"] >= arrivals["fast"] + 10_000.0

    def test_spikes_accounted(self):
        net = make_net()
        plane = FaultPlane([LatencySpike(1.0, 500.0)], seed=7).install(net)
        blast(net, 0, 1, 4)
        assert plane.stats.latency_spikes == 4
        assert plane.stats.spike_ms_total == pytest.approx(2_000.0)


class TestCrashSchedule:
    def test_crash_and_recovery_windows(self):
        net = make_net()
        plane = FaultPlane(
            [CrashSchedule([CrashWindow(node=5, start_ms=100.0, end_ms=300.0)])],
            seed=9,
        ).install(net)
        net.engine.run(until=150.0)
        assert not net.is_online(5)
        net.engine.run(until=400.0)
        assert net.is_online(5)
        assert plane.stats.crashes == 1
        assert plane.stats.recoveries == 1

    def test_no_recovery_for_infinite_window(self):
        net = make_net()
        plane = FaultPlane(
            [CrashSchedule([CrashWindow(node=2, start_ms=10.0, end_ms=math.inf)])],
            seed=9,
        ).install(net)
        net.engine.run(until=10_000.0)
        assert not net.is_online(2)
        assert plane.stats.recoveries == 0


class TestBisection:
    def test_cross_partition_dropped_within_window(self):
        net = make_net()
        left = set(range(10))
        plane = FaultPlane(
            [Bisection(left, start_ms=0.0, end_ms=math.inf)], seed=11
        ).install(net)
        assert blast(net, 0, 15, 5) == []  # crosses the cut
        assert len(blast(net, 0, 1, 5)) == 5  # same side passes
        assert len(blast(net, 15, 16, 5)) == 5
        assert plane.stats.drops_by_model["bisection"] == 5

    def test_partition_heals_after_window(self):
        net = make_net()
        plane = FaultPlane(
            [Bisection(set(range(10)), start_ms=0.0, end_ms=50.0)], seed=11
        ).install(net)
        net.send(0, 15, "cut")  # now=0: dropped
        net.engine.run(until=100.0)
        got = blast(net, 0, 15, 3)  # now=100: window over
        assert len(got) == 3
        assert plane.stats.drops == 1


class TestComposition:
    def test_first_drop_wins_and_latency_adds(self):
        net = make_net()
        plane = FaultPlane(
            [LatencySpike(1.0, 100.0), MessageLoss(1.0), LatencySpike(1.0, 999.0)],
            seed=13,
        ).install(net)
        assert blast(net, 0, 1, 3) == []
        # The spike model ran before the loss model; the one after never did.
        assert plane.stats.latency_spikes == 3
        assert plane.stats.spike_ms_total == pytest.approx(300.0)

    def test_plane_rng_isolated_from_network_rng(self):
        """Installing a plane must not perturb the network's own stream."""
        plain = make_net(seed=42)
        blast(plain, 0, 1, 20)
        faulty = make_net(seed=42)
        FaultPlane([MessageLoss(0.5)], seed=1).install(faulty)
        blast(faulty, 0, 1, 20)
        # The next latency sample comes from the same position in the
        # network stream whether or not the plane drew fault decisions.
        assert faulty.latency.between(0, 7) == plain.latency.between(0, 7)
