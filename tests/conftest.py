"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.config import HiRepConfig
from repro.core.system import HiRepSystem
from repro.crypto.backend import get_backend
from repro.crypto.keys import PeerKeys

# Example budgets of tests/property/test_prop_executors.py, picked by
# HIREP_EXECUTORS_PROFILE: "executors" in tier-1, "executors-sweep" in CI.
settings.register_profile(
    "executors", max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile("executors-sweep", settings.get_profile("executors"), max_examples=150)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=["simulated", "rsa"])
def backend(request):
    """Both cipher backends — protocol tests must pass on each."""
    return get_backend(request.param)


@pytest.fixture
def sim_backend():
    return get_backend("simulated")


@pytest.fixture
def rsa_backend():
    return get_backend("rsa")


@pytest.fixture
def keys(backend, rng):
    return PeerKeys.generate(backend, rng)


@pytest.fixture
def small_config():
    """A config sized for fast tests but exercising every mechanism."""
    return HiRepConfig(
        network_size=80,
        trusted_agents=12,
        refill_threshold=8,
        agents_queried=4,
        tokens=6,
        onion_relays=2,
        seed=99,
    )


@pytest.fixture
def small_system(small_config):
    system = HiRepSystem(small_config)
    system.bootstrap()
    return system


@pytest.fixture
def trained_system(small_config):
    system = HiRepSystem(small_config)
    system.bootstrap()
    system.reset_metrics()
    system.run(40, requestor=0)
    return system
