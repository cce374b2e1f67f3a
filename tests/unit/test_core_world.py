"""Unit tests for the shared World substrate."""

import numpy as np

from repro.core.config import HiRepConfig
from repro.core.trust_models import QualityDrivenModel
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


def test_default_agents_share_one_good_and_one_poor_model():
    world = World.from_config(CFG)
    drawn = world.draw_agents()
    assert [ip for ip, *_ in drawn] == world.network.agent_capable_nodes()
    assert len({id(rng) for _, _, rng, _ in drawn}) == len(drawn)
    models = {good: model for _, good, _, model in drawn}
    assert set(models) == {False, True}
    for _, good, _, model in drawn:
        assert model is models[good]
        assert isinstance(model, QualityDrivenModel) and model.good is good


def test_model_factory_is_called_once_per_agent_with_its_stream():
    calls = []

    def factory(good, rng):
        calls.append((good, rng))
        return QualityDrivenModel(good)

    drawn = World.from_config(CFG).draw_agents(factory)
    assert calls == [(good, rng) for _, good, rng, _ in drawn]  # node order
    assert len({id(model) for *_, model in drawn}) == len(drawn)
    # the streams are the ones the default factory's agents get
    default = World.from_config(CFG).draw_agents()
    assert [rng.random() for _, _, rng, _ in drawn] == [
        rng.random() for _, _, rng, _ in default
    ]
