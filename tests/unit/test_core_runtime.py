"""The transaction cycle is written once: guards on `repro.core.runtime`.

Nine registered systems share `TransactionRuntime.run_transaction`; each
owns only its operator.  These tests fail the moment a system grows its
own copy of the cycle again, and pin the properties the shared template
guarantees by construction (provider validation everywhere, one pair
draw and one agent-population draw for the three hiREP executors).
"""

import numpy as np
import pytest

from repro import build_system, system_names
from repro.core.config import HiRepConfig
from repro.core.runtime import Estimate, TransactionRuntime
from repro.errors import SimulationError
from repro.net.churn import ChurnModel, ChurnStats
from repro.serve.system import ServeSystem

HIREP_EXECUTORS = ("hirep", "hirep-array", "serve")


def small(seed: int = 11) -> HiRepConfig:
    return HiRepConfig(network_size=24, seed=seed)


@pytest.fixture
def built():
    """build(name, config) -> system; live fleets are torn down afterwards."""
    systems = []

    def build(name: str, config: HiRepConfig | None = None):
        systems.append(build_system(name, config or small()))
        return systems[-1]

    yield build
    for system in systems:
        if isinstance(system, ServeSystem):
            system.down()


# ------------------------------------------------------- written-once guard


@pytest.mark.parametrize("name", system_names())
def test_every_system_inherits_the_one_cycle(name, built):
    cls = type(built(name))
    assert issubclass(cls, TransactionRuntime)
    for method in ("begin", "finish", "run"):
        assert getattr(cls, method) is getattr(TransactionRuntime, method), method
    if cls is ServeSystem:
        # The only override: a sync façade over the awaitable path, which
        # itself is begin -> awaited operator -> finish.
        assert "run_transaction" in vars(ServeSystem)
    else:
        assert cls.run_transaction is TransactionRuntime.run_transaction
    assert cls.pick_pair is TransactionRuntime.pick_pair


@pytest.mark.parametrize("name", [n for n in system_names() if n != "serve"])
def test_operator_contract(name, built):
    """`_execute` returns an Estimate and leaves recording to the template."""
    system = built(name)
    tx = system.begin()
    result = system._execute(tx.requestor, tx.provider)
    assert isinstance(result, Estimate)
    assert system.transactions_run == 0 and system.outcomes == []
    outcome = system.finish(tx, result)
    assert system.outcomes == [outcome]
    assert (outcome.index, outcome.requestor, outcome.provider) == tx[:3]
    hirep = name in HIREP_EXECUTORS
    assert (outcome.trust_messages > 0) == hirep  # baselines bill `messages`
    assert (outcome.total_messages > 0) == hirep


# --------------------------------------------- provider validation, all nine


@pytest.mark.parametrize("name", system_names())
def test_explicit_provider_must_exist_and_be_online(name, built):
    system = built(name)
    with pytest.raises(SimulationError, match="does not exist"):
        system.run_transaction(0, provider=system.config.network_size)
    with pytest.raises(SimulationError, match="does not exist"):
        system.run_transaction(0, provider=-1)
    system.network.set_online(5, False)
    with pytest.raises(SimulationError, match="offline"):
        system.run_transaction(0, provider=5)
    assert system.outcomes == []
    assert system.run_transaction(0, provider=7).index == 0


# ------------------------------------ requestor validation, all nine, up front


@pytest.mark.parametrize("bad", ["-1", "-N", "N", "offline"])
@pytest.mark.parametrize("name", system_names())
def test_explicit_requestor_must_exist_and_be_online(name, bad, built):
    """A named requestor is validated like a provider, and — as is a
    provider's existence — before anything is stepped or drawn: no
    negative-index alias of peer N-1, no bare IndexError, no executor
    transacting from an offline node while another raises mid-cycle."""
    system = built(name)
    if isinstance(system, ServeSystem):
        system.up()  # the sync façade starts (and bootstraps) a stopped fleet
    n = system.config.network_size
    system.churn = ChurnModel(leave_prob=0.5, rejoin_prob=0.5)
    if bad == "offline":
        node, message = 3, "requestor 3 is offline"
        system.network.set_online(node, False)
    else:
        node = {"-1": -1, "-N": -n, "N": n}[bad]
        message = f"requestor {node} does not exist"
    liveness = system.network.online_mask.copy()
    workload = system.rng.bit_generator.state
    traffic = system.counter.total

    def nothing_happened():
        assert system.metrics._admitted == 0 and system.outcomes == []
        assert system.churn.stats == ChurnStats()
        assert np.array_equal(system.network.online_mask, liveness)
        assert system.rng.bit_generator.state == workload
        assert system.counter.total == traffic

    with pytest.raises(SimulationError, match=message):
        system.run_transaction(node)
    nothing_happened()
    with pytest.raises(SimulationError, match=message):
        system.run_transaction(node, provider=7)
    nothing_happened()
    if bad != "offline":  # an offline provider is refused after the step
        with pytest.raises(SimulationError, match=f"provider {node} does not exist"):
            system.run_transaction(0, provider=node)
        nothing_happened()
    system.churn = None
    assert system.run_transaction(0, provider=7).index == 0


# ------------------------------- one pair draw, one agent draw, three executors


@pytest.mark.parametrize("seed", [3, 7, 2006])
def test_hirep_executors_share_pair_sequence_and_agent_population(seed, built):
    pairs, quality = {}, {}
    for name in HIREP_EXECUTORS:
        system = built(name, small(seed))
        pairs[name] = [(o.requestor, o.provider) for o in system.run(8)]
        quality[name] = system.agent_quality
    assert pairs["hirep"] == pairs["hirep-array"] == pairs["serve"]
    assert quality["hirep"] == quality["hirep-array"] == quality["serve"]
    assert False in quality["hirep"].values() and True in quality["hirep"].values()
