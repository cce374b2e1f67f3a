"""Unit tests for nodes and bandwidth assignment."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.net.node import (
    AGENT_BANDWIDTH_CUTOFF_KBPS,
    BandwidthProfile,
    DEFAULT_BANDWIDTH_PROFILE,
    NetNode,
    assign_bandwidths,
)


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def test_agent_cutoff_is_64k():
    assert AGENT_BANDWIDTH_CUTOFF_KBPS == 64.0


def test_node_can_be_agent_above_cutoff():
    assert NetNode(0, bandwidth_kbps=128.0).can_be_agent
    assert not NetNode(0, bandwidth_kbps=56.0).can_be_agent
    assert not NetNode(0, bandwidth_kbps=64.0).can_be_agent  # strictly greater


def test_profile_sampling_from_speeds(rng):
    profile = BandwidthProfile(speeds_kbps=(10.0, 20.0), weights=(1.0, 1.0))
    out = profile.sample(rng, 100)
    assert set(np.unique(out)) <= {10.0, 20.0}


def test_profile_validation():
    with pytest.raises(ConfigError):
        BandwidthProfile(speeds_kbps=(1.0,), weights=(1.0, 2.0))
    with pytest.raises(ConfigError):
        BandwidthProfile(speeds_kbps=(), weights=())
    with pytest.raises(ConfigError):
        BandwidthProfile(speeds_kbps=(1.0,), weights=(-1.0,))


def test_assign_bandwidths_guarantees_agent_fraction(rng):
    slow_profile = BandwidthProfile(speeds_kbps=(28.8,), weights=(1.0,))
    bw = assign_bandwidths(100, rng, slow_profile, min_agent_fraction=0.2)
    capable = (bw > AGENT_BANDWIDTH_CUTOFF_KBPS).sum()
    assert capable >= 20


def test_assign_bandwidths_default_profile_mixed(rng):
    bw = assign_bandwidths(1000, rng)
    capable = (bw > AGENT_BANDWIDTH_CUTOFF_KBPS).mean()
    assert 0.4 < capable < 0.95


def test_assign_bandwidths_validation(rng):
    with pytest.raises(ConfigError):
        assign_bandwidths(0, rng)
    with pytest.raises(ConfigError):
        assign_bandwidths(10, rng, min_agent_fraction=1.5)


def test_default_profile_has_dialup_share():
    below = sum(
        w
        for s, w in zip(
            DEFAULT_BANDWIDTH_PROFILE.speeds_kbps, DEFAULT_BANDWIDTH_PROFILE.weights
        )
        if s <= AGENT_BANDWIDTH_CUTOFF_KBPS
    )
    total = sum(DEFAULT_BANDWIDTH_PROFILE.weights)
    assert 0.2 < below / total < 0.4
