"""Unit tests for workload generators and scenario configs."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.campaigns.specs import ScenarioSpec
from repro.experiments import fig5_traffic, fig6_accuracy, fig8_response
from repro.workloads.scenarios import default_config
from repro.workloads.transactions import (
    FixedRequestorWorkload,
    PooledRequestorWorkload,
    UniformWorkload,
)


@pytest.fixture
def rng():
    return np.random.default_rng(55)


class TestFixedRequestor:
    def test_requestor_constant(self, rng):
        wl = FixedRequestorWorkload(50, rng, requestor=7)
        for tx in wl.generate(30):
            assert tx.requestor == 7
            assert tx.provider != 7

    def test_providers_vary(self, rng):
        wl = FixedRequestorWorkload(50, rng)
        providers = {tx.provider for tx in wl.generate(100)}
        assert len(providers) > 10

    def test_requestor_range_validated(self, rng):
        with pytest.raises(ConfigError):
            FixedRequestorWorkload(10, rng, requestor=10)


class TestPooledRequestor:
    def test_requestors_from_pool(self, rng):
        wl = PooledRequestorWorkload(50, rng, pool_size=5)
        requestors = {tx.requestor for tx in wl.generate(50)}
        assert requestors == set(wl.pool)

    def test_cycles_through_pool(self, rng):
        wl = PooledRequestorWorkload(50, rng, pool_size=3)
        txs = list(wl.generate(6))
        assert [t.requestor for t in txs[:3]] == [t.requestor for t in txs[3:]]

    def test_pool_size_validation(self, rng):
        with pytest.raises(ConfigError):
            PooledRequestorWorkload(50, rng, pool_size=0)


class TestUniform:
    def test_never_self_transaction(self, rng):
        wl = UniformWorkload(20, rng)
        for tx in wl.generate(200):
            assert tx.requestor != tx.provider

    def test_min_nodes(self, rng):
        with pytest.raises(ConfigError):
            UniformWorkload(1, rng)

    def test_indices_sequential(self, rng):
        wl = UniformWorkload(10, rng)
        assert [tx.index for tx in wl.generate(5)] == [0, 1, 2, 3, 4]


def plan_configs(module, **kwargs) -> dict:
    """Each cell's label -> the config its scenario builds."""
    configs = {}
    for job in module.plan(**kwargs).specs:
        scenario = ScenarioSpec.from_dict(job.kwargs["scenario"])
        configs[job.label] = scenario.workload.build_config(
            job.kwargs["seed"], scenario.topology
        )
    return configs


class TestScenarios:
    def test_fig5_sweeps_degree(self):
        configs = plan_configs(fig5_traffic)
        assert configs["fig5-voting/degree=2[voting,seed=2006]"].avg_neighbors == 2.0
        assert configs["fig5-voting/degree=4[voting,seed=2006]"].avg_neighbors == 4.0
        assert configs["fig5-hirep/default[hirep,seed=2006]"] == default_config()

    def test_fig6_sweeps_threshold(self):
        configs = plan_configs(fig6_accuracy)
        theta8 = configs["fig6-hirep/theta=0.8[hirep,seed=2006]"]
        assert theta8.eviction_threshold == 0.8
        assert theta8.poor_agent_fraction == 0.10
        assert theta8.malicious_fraction == 0.10
        assert configs["fig6-voting/theta=0.4[voting,seed=2006]"].poor_agent_fraction == 0.10

    def test_fig7_couples_fractions(self):
        from repro.campaigns.specs import AttackSpec

        for protocol in (True, False):
            cfg = AttackSpec.collusion(0.7).transform_config(
                default_config(), protocol=protocol
            )
            assert cfg.poor_agent_fraction == 0.7
            assert cfg.malicious_fraction == 0.7

    def test_fig8_sweeps_relays(self):
        configs = plan_configs(fig8_response)
        assert configs["fig8-hirep/relays=10[hirep,seed=2006]"].onion_relays == 10
        assert configs["fig8-voting/relays=5[voting,seed=2006]"].onion_relays == 5

    def test_default_is_table1(self):
        cfg = default_config()
        assert cfg.network_size == 1000
        assert cfg.trusted_agents == 60

    def test_network_size_override(self):
        configs = plan_configs(fig6_accuracy, network_size=200, seed=7)
        assert {(c.network_size, c.seed) for c in configs.values()} == {(200, 7)}
