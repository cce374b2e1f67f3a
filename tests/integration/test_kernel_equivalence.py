"""Behavior-preservation proof for the reputation-system kernel refactor.

Three layers of evidence:

* **goldens** — ``tests/data/golden_outcomes.json`` pins per-transaction
  outcomes captured from the pre-kernel tree (direct construction, the
  monolithic ``HiRepSystem`` and the old ``BaselineSystem`` class tree) at
  fixed seeds; the kernel must reproduce them bit for bit;
* **registry vs. direct** — ``build_system(name)`` must behave identically
  to calling the constructor directly with the same config;
* **round trip** — every registered name builds, runs transactions, and
  satisfies the :class:`~repro.core.interface.ReputationSystem` protocol.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib

import pytest

from repro import build_system, system_names
from repro.baselines import (
    CredibilityVotingSystem,
    EigenTrustSystem,
    GossipSystem,
    LocalReputationSystem,
    PureVotingSystem,
    TrustMeSystem,
)
from repro.core.interface import Outcome, ReputationSystem
from repro.core.system import HiRepSystem
from repro.errors import ConfigError
from repro.workloads.scenarios import default_config

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "data" / "golden_outcomes.json"
GOLDEN_TRANSACTIONS = 25

DIRECT_CONSTRUCTORS = {
    "hirep": HiRepSystem,
    "voting": PureVotingSystem,
    "credibility": CredibilityVotingSystem,
    "trustme": TrustMeSystem,
    "local": LocalReputationSystem,
    "eigentrust": EigenTrustSystem,
    "gossip": GossipSystem,
}


def golden_config():
    """The exact config tests/data/capture_goldens.py pinned."""
    return default_config(network_size=80, seed=99).with_(
        trusted_agents=10, refill_threshold=6, agents_queried=4, onion_relays=2
    )


def sanitize(value: object) -> object:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# ------------------------------------------------------- pre-refactor goldens


@pytest.mark.parametrize(
    "name",
    ["hirep", "voting", "credibility", "trustme", "local", "eigentrust", "gossip"],
)
def test_kernel_reproduces_pre_refactor_outcomes(name: str, goldens: dict) -> None:
    expect = goldens[name]
    system = build_system(name, golden_config())
    system.run(GOLDEN_TRANSACTIONS)
    assert len(system.outcomes) == len(expect["outcomes"])
    for i, row in enumerate(expect["outcomes"]):
        outcome = system.outcomes[i]
        for key, want in row.items():
            assert sanitize(getattr(outcome, key)) == want, (
                f"{name} tx {i} field {key}"
            )
    assert system.network.counter.total == expect["message_total"]
    assert system.transactions_run == expect["transactions_run"]


# -------------------------------------------------------- registry vs direct


@pytest.mark.parametrize("name", sorted(DIRECT_CONSTRUCTORS))
def test_build_system_matches_direct_construction(name: str) -> None:
    cfg = golden_config()
    via_registry = build_system(name, cfg)
    direct = DIRECT_CONSTRUCTORS[name](golden_config())
    via_registry.run(10)
    direct.run(10)
    assert len(via_registry.outcomes) == len(direct.outcomes) == 10
    for a, b in zip(via_registry.outcomes, direct.outcomes):
        da = {k: sanitize(v) for k, v in dataclasses.asdict(a).items()}
        db = {k: sanitize(v) for k, v in dataclasses.asdict(b).items()}
        assert da == db
    assert via_registry.counter.total == direct.counter.total


# ------------------------------------------------------------- registry API


def test_registry_covers_hirep_and_every_baseline() -> None:
    assert set(system_names()) >= {
        "hirep",
        "voting",
        "credibility",
        "trustme",
        "local",
        "eigentrust",
        "gossip",
    }


@pytest.mark.parametrize("name", sorted(DIRECT_CONSTRUCTORS))
def test_registry_round_trip(name: str) -> None:
    system = build_system(name, golden_config())
    assert isinstance(system, ReputationSystem)
    outcomes = system.run(20)
    assert system.transactions_run == 20
    assert len(system.outcomes) == 20
    for outcome in outcomes:
        assert isinstance(outcome, Outcome)
        assert 0.0 <= outcome.estimate <= 1.0
        assert outcome.truth in (0.0, 1.0)
    system.reset_metrics()
    assert system.transactions_run == 0
    assert system.outcomes == []
    assert system.counter.total == 0


def test_unknown_system_name_is_a_config_error() -> None:
    with pytest.raises(ConfigError, match="unknown system"):
        build_system("no-such-system")


def test_build_system_passes_options_through() -> None:
    system = build_system("hirep-array", golden_config(), bootstrap_mode="seeded")
    assert system.bootstrap_mode == "seeded"
