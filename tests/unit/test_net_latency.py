"""Unit tests for latency models and the memoized latency map."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.net.latency import (
    ConstantLatency,
    LatencyMap,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)


@pytest.fixture
def rng():
    return np.random.default_rng(8)


def test_constant_latency(rng):
    model = ConstantLatency(25.0)
    assert model.sample(rng) == 25.0


def test_constant_validation():
    with pytest.raises(ConfigError):
        ConstantLatency(0.0)


def test_uniform_in_range(rng):
    model = UniformLatency(10.0, 20.0)
    samples = [model.sample(rng) for _ in range(200)]
    assert all(10.0 <= s <= 20.0 for s in samples)


def test_uniform_validation():
    with pytest.raises(ConfigError):
        UniformLatency(20.0, 10.0)
    with pytest.raises(ConfigError):
        UniformLatency(0.0, 10.0)


def test_lognormal_positive_and_capped(rng):
    model = LogNormalLatency(mu=3.9, sigma=0.5, cap_ms=100.0)
    samples = [model.sample(rng) for _ in range(500)]
    assert all(0 < s <= 100.0 for s in samples)


def test_lognormal_validation():
    with pytest.raises(ConfigError):
        LogNormalLatency(sigma=0.0)


def test_map_symmetric(rng):
    lm = LatencyMap(UniformLatency(), rng)
    assert lm.between(3, 7) == lm.between(7, 3)


def test_map_memoized(rng):
    lm = LatencyMap(UniformLatency(), rng)
    first = lm.between(1, 2)
    assert all(lm.between(1, 2) == first for _ in range(10))


def test_map_self_latency_zero(rng):
    lm = LatencyMap(UniformLatency(), rng)
    assert lm.between(4, 4) == 0.0


def test_map_len_counts_pairs(rng):
    lm = LatencyMap(ConstantLatency(1.0), rng)
    lm.between(0, 1)
    lm.between(1, 0)  # same pair
    lm.between(0, 2)
    assert len(lm) == 2


def _ladder_mean(model):
    """The array kernel's ``_mean_latency_ms`` isinstance ladder, as deleted."""
    if isinstance(model, ConstantLatency):
        return float(model.ms)
    if isinstance(model, UniformLatency):
        return (model.lo + model.hi) / 2.0
    if isinstance(model, LogNormalLatency):
        mean = float(np.exp(model.mu + model.sigma * model.sigma / 2.0))
        return min(mean, float(model.cap_ms))
    probe = np.random.default_rng(0)
    return float(np.mean([model.sample(probe) for _ in range(512)]))


class _Bimodal(LatencyModel):
    """A model with no closed form of its own: falls to the probe."""

    def sample(self, rng):
        return 5.0 if rng.random() < 0.25 else 80.0


@pytest.mark.parametrize(
    "model",
    [
        ConstantLatency(25.0),
        UniformLatency(),
        UniformLatency(3.0, 3.0),
        LogNormalLatency(),
        LogNormalLatency(mu=6.0, sigma=1.5, cap_ms=300.0),  # mean clamps to the cap
        _Bimodal(),
    ],
    ids=lambda m: type(m).__name__,
)
def test_mean_ms_is_the_value_the_array_kernel_computed(model):
    mean = model.mean_ms()
    assert type(mean) is float
    assert mean == _ladder_mean(model)
    assert model.mean_ms() == mean  # the probe is fixed-seed: repeatable


def test_mean_ms_closed_forms():
    assert ConstantLatency(25.0).mean_ms() == 25.0
    assert UniformLatency(10.0, 150.0).mean_ms() == 80.0
    assert LogNormalLatency(mu=6.0, sigma=1.5, cap_ms=300.0).mean_ms() == 300.0
    assert 5.0 < _Bimodal().mean_ms() < 80.0
