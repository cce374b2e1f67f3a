"""Mid-run attack events: the ``dos`` and ``spoofing`` attachments and the
cell trace that carries their readings."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.attacks.dos import _agent_popularity
from repro.campaigns.attach import attach_attack
from repro.campaigns.cells import campaign_cell
from repro.campaigns.specs import AttackSpec, ChurnSpec, ScenarioSpec, WorkloadSpec
from repro.core.config import HiRepConfig
from repro.core.registry import build_system
from repro.errors import ConfigError


def small_config(seed: int = 72) -> HiRepConfig:
    return HiRepConfig(
        network_size=60,
        trusted_agents=8,
        refill_threshold=4,
        agents_queried=3,
        onion_relays=1,
        seed=seed,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(9)


@pytest.fixture
def system():
    s = build_system("hirep", small_config())
    s.bootstrap()
    s.run(10, requestor=0)
    return s


def probe(attack: AttackSpec, transactions: int = 12, requestor: int | None = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="probe",
        workload=WorkloadSpec(
            network_size=60,
            transactions=transactions,
            requestor=requestor,
            overrides={"trusted_agents": 8, "refill_threshold": 4, "agents_queried": 3},
        ),
        attack=attack,
    )


def cell(
    attack: AttackSpec,
    transactions: int = 12,
    requestor: int | None = 0,
    system: str = "hirep",
) -> dict:
    scenario = probe(attack, transactions, requestor)
    payload = campaign_cell(scenario.to_dict(), system, 5)
    assert payload["cell_error"] is None, payload["cell_error"]
    return payload


def test_serve_cell_is_refused_before_anything_is_built(monkeypatch):
    """A live fleet is not a campaign target (docs/scaling.md): a churn cell
    on ``serve`` fails at the config stage, before anything is built."""
    built = []
    monkeypatch.setattr("repro.core.registry.build_system", lambda *a, **k: built.append(a))
    workload = WorkloadSpec(network_size=24, transactions=8)
    scenario = ScenarioSpec(name="churned", workload=workload, churn=ChurnSpec(leave_prob=0.1))
    payload = campaign_cell(scenario.to_dict(), "serve", 5)
    assert payload["scorecard"] is None and built == []
    assert payload["cell_error"] == {
        "stage": "config",
        "type": "ConfigError",
        "message": "serve does not support campaign cells; use 'hirep' or 'hirep-array'",
    }


class TestValidation:
    def test_dos_needs_fraction_and_period(self):
        with pytest.raises(ConfigError):
            AttackSpec(kind="dos", fraction=0.0, period=5)
        with pytest.raises(ConfigError):
            AttackSpec(kind="dos", fraction=0.2)
        with pytest.raises(ConfigError):
            AttackSpec(kind="dos", fraction=0.2, period=0)

    def test_spoofing_needs_attempts(self):
        with pytest.raises(ConfigError):
            AttackSpec(kind="spoofing")
        with pytest.raises(ConfigError):
            AttackSpec.spoofing(attempts=0)

    def test_round_trip(self):
        for spec in (AttackSpec.dos(0.3, start=4, period=6), AttackSpec.spoofing(9, 2)):
            assert AttackSpec.from_dict(spec.to_dict()) == spec


class TestDoS:
    def test_events_fire_at_start_and_after_period(self, system, rng):
        handle = attach_attack(system, AttackSpec.dos(0.25, start=5, period=7), rng)
        assert handle.level == "protocol"
        assert [at for at, _ in handle.events] == [5, 12]

    def test_victims_go_down_and_come_back_sparing_the_protected(self, system, rng):
        popularity = _agent_popularity(system)
        top = max(popularity, key=popularity.get)
        handle = attach_attack(
            system, AttackSpec.dos(0.25, start=0, period=1), rng, protected=[top]
        )
        (_, down), (_, up) = handle.events
        down(system)
        victims = handle.detail["victims"]
        assert len(victims) == max(2, int(0.25 * len(system.agents)))
        assert top not in victims
        assert system.network.is_online(top)
        assert not any(system.network.is_online(ip) for ip in victims)
        up(system)
        assert all(system.network.is_online(ip) for ip in victims)

    def test_cell_never_takes_the_requestor_down(self):
        payload = cell(AttackSpec.dos(0.9, start=4, period=4))
        victims = payload["trace"]["detail"]["victims"]
        assert victims and 0 not in victims
        assert len(payload["trace"]["answered"]) == 12


class TestSpoofing:
    def test_event_records_the_rejection_rate(self, system, rng):
        handle = attach_attack(
            system, AttackSpec.spoofing(attempts=20, start=3), rng, protected=[0]
        )
        [(at, spoof)] = handle.events
        assert at == 3
        spoof(system)
        detail = handle.detail
        assert (detail["attempted"], detail["accepted"]) == (20, 0)
        assert detail["rejection_rate"] == 1.0
        assert detail["attacker"] not in (0, detail["agent"])

    def test_cell_trace_carries_the_rejection_rate(self):
        payload = cell(AttackSpec.spoofing(attempts=15, start=12), requestor=None)
        assert payload["trace"]["detail"]["rejection_rate"] == 1.0

    def test_systems_without_the_hooks_fall_back(self, rng):
        voting = build_system("voting", small_config())
        handle = attach_attack(voting, AttackSpec.spoofing(attempts=5), rng)
        assert handle.level == "config" and handle.events == []


def test_trace_is_per_transaction_and_json_plain():
    payload = cell(AttackSpec.none(), transactions=8)
    trace = payload["trace"]
    assert len(trace["squared_errors"]) == len(trace["trust_messages"]) == 8
    # The scorecard's tail MSE (window 5 at T = 8) is a slice of the trace.
    assert payload["scorecard"]["mse"] == float(np.mean(trace["squared_errors"][-5:]))
    assert sum(trace["by_category"].values()) == payload["scorecard"]["msgs_per_tx"] * 8
    assert trace["detail"] == {}
    assert json.loads(json.dumps(trace, allow_nan=False)) == trace

    # The same run by hand: the counter and response-time records match.
    scenario = probe(AttackSpec.none(), transactions=8)
    system = build_system("hirep", scenario.workload.build_config(5, scenario.topology))
    system.bootstrap()
    system.reset_metrics()
    system.run(8, requestor=0)
    assert np.cumsum(trace["messages"]).tolist() == system.counter.snapshots.tolist()
    answered = [v for v in trace["response_ms"] if v is not None]
    assert len(answered) == len(system.response_times)

    # Baselines bill their floods through the counter, not the trust process.
    voting = cell(AttackSpec.none(), transactions=6, requestor=None, system="voting")
    assert voting["trace"]["trust_messages"] == [0] * 6
    assert all(m > 0 for m in voting["trace"]["messages"])
