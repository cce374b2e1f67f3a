"""Unit tests for the shared World substrate."""

import numpy as np

from repro.core.config import HiRepConfig
from repro.core.world import World


CFG = HiRepConfig(network_size=100, seed=31)


def test_same_config_same_world():
    a = World.from_config(CFG)
    b = World.from_config(CFG)
    assert a.topology.adjacency == b.topology.adjacency
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.malicious_peer, b.malicious_peer)


def test_same_bandwidths_across_systems():
    a = World.from_config(CFG)
    b = World.from_config(CFG)
    assert np.array_equal(a.network.bandwidth, b.network.bandwidth)


def test_seed_changes_world():
    a = World.from_config(CFG)
    b = World.from_config(CFG.with_(seed=32))
    assert not np.array_equal(a.truth, b.truth)


def test_untrusted_fraction_controls_truth():
    all_trusted = World.from_config(CFG.with_(untrusted_peer_fraction=0.0))
    assert all_trusted.truth.min() == 1.0
    none_trusted = World.from_config(CFG.with_(untrusted_peer_fraction=1.0))
    assert none_trusted.truth.max() == 0.0


def test_malicious_fraction_scales():
    lots = World.from_config(CFG.with_(malicious_fraction=0.9))
    few = World.from_config(CFG.with_(malicious_fraction=0.05))
    assert lots.malicious_peer.mean() > few.malicious_peer.mean()


def test_n_property():
    assert World.from_config(CFG).n == 100
