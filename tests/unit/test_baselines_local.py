"""Unit tests for the limited-reputation-sharing baseline."""

import numpy as np

from repro.baselines.local import LocalReputationSystem
from repro.campaigns.cells import campaign_cell
from repro.campaigns.scorecard import success_rate
from repro.campaigns.specs import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.core.config import HiRepConfig
from repro.core.registry import build_system

CFG = HiRepConfig(network_size=80, seed=66)


def test_first_contact_uses_prior():
    system = LocalReputationSystem(CFG)
    out = system.run_transaction(requestor=0, provider=5)
    assert out.estimate == 0.5
    assert out.messages == 0


def test_history_informs_repeat_contact():
    system = LocalReputationSystem(CFG)
    provider = int(np.nonzero(system.truth == 1.0)[0][0]) or 1
    system.run_transaction(requestor=0, provider=provider)
    out = system.run_transaction(requestor=0, provider=provider)
    # One honest observation of a trusted provider: estimate in good range.
    if not system.malicious[0]:
        assert out.estimate >= 0.6


def test_zero_query_traffic_without_friends():
    system = LocalReputationSystem(CFG)
    system.run(30)
    assert system.counter.total == 0


def test_coverage_terrible_in_large_population():
    """The baseline's known weakness: random pairs rarely repeat."""
    system = LocalReputationSystem(CFG)
    system.run(100)
    assert success_rate(system.outcomes) < 0.3


def test_campaign_cell_success_rate_is_coverage():
    """A fixed requestor has history exactly for the providers it met
    earlier in the run; the cell's scorecard counts those transactions,
    not every transaction with an estimate."""
    workload = WorkloadSpec(network_size=30, transactions=60, requestor=0)
    spec = ScenarioSpec(name="cell", workload=workload)
    cell = campaign_cell(spec.to_dict(), "local", 7)

    system = build_system("local", workload.build_config(7, TopologySpec()))
    for _ in range(workload.transactions):
        system.run_transaction(0)
    met: set[int] = set()
    had_history = 0
    for outcome in system.outcomes:
        had_history += outcome.provider in met
        met.add(outcome.provider)
    share = had_history / workload.transactions

    assert 0.0 < share < 1.0
    assert cell["scorecard"]["success_rate"] == share


def test_shares_world_with_other_systems():
    from repro.core.system import HiRepSystem

    local = LocalReputationSystem(CFG)
    hirep = HiRepSystem(CFG)
    assert local.topology.adjacency == hirep.topology.adjacency
    assert np.array_equal(local.truth, hirep.truth)
