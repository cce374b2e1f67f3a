"""The curated campaign catalogue.

Each named campaign is a reproducible sweep: scenarios x systems x seeds,
with a clean reference scenario first so every scorecard gets
degradation-vs-clean deltas.  Sizes are chosen so a whole campaign runs
in seconds on a laptop — these are robustness *scorecards*, not the
paper-scale figure sweeps (:mod:`repro.experiments` keeps those).
Every registered name is a ``hirep-experiments`` id: ``hirep-experiments
mini --out DIR`` runs the cells and writes ``DIR/mini.json`` / ``.md``
(:mod:`repro.campaigns.report`).

Downstream code registers additional campaigns with
:func:`register_campaign`; factories must be module-level picklable
callables (lint rule ``EXC001``) because compiled cells cross process
boundaries.
"""

from __future__ import annotations

from typing import Callable

from repro.campaigns.specs import (
    AttackSpec,
    Campaign,
    ChurnSpec,
    FaultSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.errors import ConfigError

__all__ = [
    "CAMPAIGNS",
    "campaign_names",
    "get_campaign",
    "register_campaign",
]

#: default cell sizing for catalogue campaigns — big enough for the
#: attacks to bite, small enough that a 2x2 sweep finishes in seconds.
_WORKLOAD = WorkloadSpec(network_size=80, transactions=30)
_MINI_WORKLOAD = WorkloadSpec(network_size=40, transactions=20)


def _clean(workload: WorkloadSpec = _WORKLOAD) -> ScenarioSpec:
    return ScenarioSpec(name="clean", workload=workload)


def sybil_wave_campaign() -> Campaign:
    """Sybil pressure at two intensities, then crossed with loss + churn."""
    return Campaign(
        name="sybil-wave",
        description=(
            "Sybil identities flood discovery at rising intensity; the "
            "hardest cell adds message loss and churn on top."
        ),
        scenarios=(
            _clean(),
            ScenarioSpec(
                name="sybil-10",
                workload=_WORKLOAD,
                attack=AttackSpec.sybil(count=10, compromised_fraction=0.10),
            ),
            ScenarioSpec(
                name="sybil-25",
                workload=_WORKLOAD,
                attack=AttackSpec.sybil(count=25, compromised_fraction=0.25),
            ),
            ScenarioSpec(
                name="sybil-25+loss+churn",
                workload=_WORKLOAD,
                attack=AttackSpec.sybil(count=25, compromised_fraction=0.25),
                fault=FaultSpec(loss=0.10),
                churn=ChurnSpec(leave_prob=0.05, rejoin_prob=0.5),
            ),
        ),
    )


def whitewash_wave_campaign() -> Campaign:
    """Providers shed bad history in waves, alone and under churn."""
    return Campaign(
        name="whitewash-wave",
        description=(
            "Waves of providers re-enter under fresh identities; the "
            "crossed cell makes the re-entry blend into natural churn."
        ),
        scenarios=(
            _clean(),
            ScenarioSpec(
                name="whitewash-3waves",
                workload=_WORKLOAD,
                attack=AttackSpec.whitewash(fraction=0.15, waves=3, start=8),
            ),
            ScenarioSpec(
                name="whitewash+churn",
                workload=_WORKLOAD,
                attack=AttackSpec.whitewash(fraction=0.15, waves=3, start=8),
                churn=ChurnSpec(leave_prob=0.05, rejoin_prob=0.5),
            ),
        ),
    )


def collusion_clique_campaign() -> Campaign:
    """Colluding cliques at rising attacker ratios, then under loss."""
    return Campaign(
        name="collusion-clique",
        description=(
            "Attacker ratio sweep in campaign form (the paper's Fig. 7 "
            "pressure), with a lossy-network cross."
        ),
        scenarios=(
            _clean(),
            ScenarioSpec(
                name="collude-20",
                workload=_WORKLOAD,
                attack=AttackSpec.collusion(0.20),
            ),
            ScenarioSpec(
                name="collude-40",
                workload=_WORKLOAD,
                attack=AttackSpec.collusion(0.40),
            ),
            ScenarioSpec(
                name="collude-40+loss",
                workload=_WORKLOAD,
                attack=AttackSpec.collusion(0.40),
                fault=FaultSpec(loss=0.15),
            ),
        ),
    )


def oscillation_campaign() -> Campaign:
    """Build-then-betray peers: permanent turn vs duty-cycle oscillation."""
    return Campaign(
        name="oscillation",
        description=(
            "Agents build trust honestly then turn — once, or on a duty "
            "cycle; the crossed cell adds latency spikes."
        ),
        scenarios=(
            _clean(),
            ScenarioSpec(
                name="betray-once",
                workload=_WORKLOAD,
                attack=AttackSpec.oscillation(fraction=0.3, build=10),
            ),
            ScenarioSpec(
                name="oscillate-p5",
                workload=_WORKLOAD,
                attack=AttackSpec.oscillation(fraction=0.3, build=10, period=5),
            ),
            ScenarioSpec(
                name="oscillate+latency",
                workload=_WORKLOAD,
                attack=AttackSpec.oscillation(fraction=0.3, build=10, period=5),
                fault=FaultSpec(latency_prob=0.2, latency_ms=80.0, latency_jitter_ms=20.0),
            ),
        ),
    )


def faultline_campaign() -> Campaign:
    """Pure fault/churn pressure (no attack) — the infrastructure baseline."""
    return Campaign(
        name="faultline",
        description=(
            "No adversary, only infrastructure pain: loss, crash windows, "
            "a temporary bisection, and churn."
        ),
        scenarios=(
            _clean(),
            ScenarioSpec(
                name="lossy",
                workload=_WORKLOAD,
                fault=FaultSpec(loss=0.15),
            ),
            ScenarioSpec(
                name="crash+bisect",
                workload=_WORKLOAD,
                fault=FaultSpec(
                    crash_fraction=0.15,
                    bisection_fraction=0.25,
                    bisection_start_ms=2_000.0,
                    bisection_end_ms=10_000.0,
                ),
            ),
            ScenarioSpec(
                name="heavy-churn",
                workload=_WORKLOAD,
                churn=ChurnSpec(leave_prob=0.10, rejoin_prob=0.4),
            ),
        ),
    )


def mini_campaign() -> Campaign:
    """The CI-sized campaign: 3 scenarios x 2 systems x 2 seeds, tiny cells."""
    return Campaign(
        name="mini",
        description=(
            "Smoke-test sweep for CI and the byte-determinism golden "
            "report: clean, one sybil cell, one collusion cell."
        ),
        scenarios=(
            _clean(_MINI_WORKLOAD),
            ScenarioSpec(
                name="sybil-8",
                workload=_MINI_WORKLOAD,
                attack=AttackSpec.sybil(count=8, compromised_fraction=0.2),
            ),
            ScenarioSpec(
                name="collude-30",
                workload=_MINI_WORKLOAD,
                attack=AttackSpec.collusion(0.30),
            ),
        ),
        systems=("hirep", "voting"),
        seeds=(2006, 2007),
    )


#: name -> module-level factory.  Factories (not instances) so importing
#: the catalogue stays cheap and every lookup gets a fresh Campaign.
CAMPAIGNS: dict[str, Callable[[], Campaign]] = {}


def register_campaign(factory: Callable[[], Campaign], name: str | None = None) -> None:
    """Register a campaign factory under ``name`` (or the campaign's own).

    The factory must be a module-level callable (rule ``EXC001``): compiled
    cells are executed by worker processes, and a factory hidden in a
    closure or lambda cannot be re-imported there.
    """
    campaign = factory()
    key = name or campaign.name
    if key in CAMPAIGNS:
        raise ConfigError(f"campaign {key!r} is already registered")
    CAMPAIGNS[key] = factory


def campaign_names() -> list[str]:
    return sorted(CAMPAIGNS)


def get_campaign(name: str) -> Campaign:
    try:
        factory = CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(campaign_names())
        raise ConfigError(f"unknown campaign {name!r} (known: {known})") from None
    return factory()


for _factory in (
    sybil_wave_campaign,
    whitewash_wave_campaign,
    collusion_clique_campaign,
    oscillation_campaign,
    faultline_campaign,
    mini_campaign,
):
    register_campaign(_factory)
