"""The one way to attach an attack to a reputation system.

Before the campaign engine, every experiment wired attacks by hand —
robustness built its own ``SybilOperator``, picked its own compromised
sets, and the collusion sweep rewrote config fields inline.  This module
centralises that policy behind three entry points keyed on an
:class:`~repro.campaigns.specs.AttackSpec`:

* :func:`attack_config` — the config-level component of the attack
  (attacker ratios, turncoat fractions, population-level fallbacks);
* :func:`attack_build_opts` — build-time options for the registry
  (currently: the oscillating model factory for hiREP);
* :func:`attach_attack` — post-build installation on a live system
  (sybil operator, forged-discovery hook, scheduled identity resets,
  agent take-downs and forged reports), returning an
  :class:`AttackHandle` describing what actually attached.

Attachment degrades by capability, not by crashing: a system whose
executor does not support ``protocol_attacks`` in
:data:`~repro.core.registry.CAPABILITIES` (the array kernel, and every
baseline) gets the population-level interpretation of the same attack —
``fraction`` of the participants malicious, the reading Fig. 7 already
uses for the voting baseline — and the handle records ``level="config"``
so scorecards can tell protocol-level pressure from the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.campaigns.specs import AttackSpec
from repro.core.registry import supports
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import HiRepConfig

__all__ = [
    "AttackHandle",
    "attach_attack",
    "attack_build_opts",
    "attack_config",
    "compromised_nodes",
]

#: seed offset for the attack plane's own generator — like the fault
#: plane, attacks draw from a private stream so attaching one never
#: perturbs the topology/key/workload streams.
ATTACK_SEED_OFFSET = 7717


@dataclass
class AttackHandle:
    """What :func:`attach_attack` actually installed.

    ``events`` schedules mid-run actions for the cell driver: each entry
    is ``(transaction_index, action)`` where ``action(system)`` runs after
    that many transactions have completed (whitewash waves re-key their
    providers, DoS takes agents down and restores them, spoofing fires its
    forged reports).  ``detail`` carries attack-specific bookkeeping
    (sybil identity count, compromised node count, reset provider ips, DoS
    victims, spoofing rejection rate); actions may fill it in as they run.
    """

    spec: AttackSpec
    level: str = "none"  # "protocol" | "config" | "none"
    events: list[tuple[int, Callable[[Any], None]]] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def compromised_nodes(
    network_size: int, fraction: float, rng: np.random.Generator
) -> set[int]:
    """A random ``fraction`` of node indices (the attacker's foothold)."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"fraction must be in [0,1], got {fraction}")
    count = min(int(round(fraction * network_size)), network_size)
    if count == 0:
        return set()
    return {int(i) for i in rng.choice(network_size, size=count, replace=False)}


def attack_rng(spec: AttackSpec, seed: int) -> np.random.Generator:
    """The attack's private generator for ``seed`` (stream-isolated)."""
    return np.random.default_rng(seed + ATTACK_SEED_OFFSET)


def attack_config(
    spec: AttackSpec, config: "HiRepConfig", *, protocol: bool
) -> "HiRepConfig":
    """The config-level component of ``spec`` (see the module docstring)."""
    return spec.transform_config(config, protocol=protocol)


def attack_build_opts(spec: AttackSpec, *, protocol: bool) -> dict:
    """Build-time registry options the attack needs (may be empty)."""
    if not protocol or spec.kind != "oscillation":
        return {}

    def factory(good: bool, rng: np.random.Generator):
        from repro.attacks.oscillation import OscillatingModel
        from repro.core.trust_models import QualityDrivenModel

        if good:
            return QualityDrivenModel(True)
        return OscillatingModel(
            honest_evaluations=spec.start, period=spec.period
        )

    return {"model_factory": factory}


def _whitewash_providers(system: Any, fraction: float) -> list[int]:
    """Even-stride provider picks (deterministic, requestor 0 excluded)."""
    n = system.config.network_size
    count = max(1, int(round(fraction * n)))
    stride = max(1, n // count)
    return [ip for ip in range(1, n, stride)][:count]


def _whitewash_wave(system: Any, providers: list[int]) -> None:
    from repro.attacks.whitewash import whitewash_provider

    for provider in providers:
        whitewash_provider(system, provider)


def _dos_down(
    system: Any, *, fraction: float, protected: Sequence[int], detail: dict
) -> None:
    from repro.attacks.dos import take_down_top_agents

    count = max(2, int(fraction * len(system.agents)))
    detail["victims"] = take_down_top_agents(
        system, count, exclude=set(protected)
    ).disabled


def _dos_up(system: Any, *, detail: dict) -> None:
    from repro.attacks.dos import DosOutcome, restore_agents

    restore_agents(system, DosOutcome(disabled=detail["victims"]))


def _spoof(
    system: Any,
    *,
    attempts: int,
    protected: Sequence[int],
    rng: np.random.Generator,
    detail: dict,
) -> None:
    from repro.attacks.spoofing import mount_spoofing_attack

    # The worst case for the defence: the target knows the most
    # identities, so every forged victim nodeID is in its key list.
    agents = system.agents
    agent_ip = max(agents, key=lambda ip: len(agents[ip].public_key_list))
    attacker_ip = next(
        ip
        for ip in range(system.config.network_size)
        if ip != agent_ip and ip not in protected
    )
    report = mount_spoofing_attack(system, attacker_ip, agent_ip, attempts, rng)
    rate = report.rejection_rate
    detail.update(
        agent=agent_ip,
        attacker=attacker_ip,
        attempted=report.attempted,
        accepted=report.accepted,
        rejection_rate=None if math.isnan(rate) else rate,
    )


def attach_attack(
    system: Any,
    spec: AttackSpec,
    rng: np.random.Generator,
    *,
    protected: Sequence[int] = (),
) -> AttackHandle:
    """Install ``spec`` on a live, registry-built system.

    Must run *before* ``bootstrap()``/traffic so discovery sees the forged
    world from the first message.  ``protected`` nodes (the cell's
    requestor) are never taken down and never act as the spoofer.
    Returns the handle describing the attachment level and any mid-run
    events the caller must drive.
    """
    if not spec.active:
        return AttackHandle(spec=spec, level="none")
    if spec.kind == "collusion":
        # Collusion lives entirely in the config (attacker ratios); by the
        # time a system exists the colluders are already in place.
        return AttackHandle(spec=spec, level="protocol", detail={"mechanism": "config"})
    if not supports(system.executor, "protocol_attacks"):
        return AttackHandle(
            spec=spec,
            level="config",
            detail={"mechanism": "population-level malicious fraction"},
        )

    n = system.config.network_size
    if spec.kind == "sybil":
        from repro.attacks.sybil import SybilOperator

        # A system can expose the protocol hooks yet have no reputation
        # agents to hijack (tiny configs, degenerate bandwidth draws);
        # degrade to the population-level reading instead of crashing.
        agents = getattr(system, "agents", None)
        if not agents:
            return AttackHandle(
                spec=spec,
                level="config",
                detail={"mechanism": "population-level malicious fraction"},
            )
        host = next(iter(agents))
        operator = SybilOperator(system, host, count=spec.count, rng=rng)
        compromised = compromised_nodes(n, spec.fraction, rng)
        operator.install(compromised=compromised)
        return AttackHandle(
            spec=spec,
            level="protocol",
            detail={
                "host": host,
                "identities": len(operator.identities),
                "compromised": len(compromised),
            },
        )

    if spec.kind == "recommendation":
        from repro.attacks.models import install_recommendation_attack

        attacker = install_recommendation_attack(system, spec.fraction, rng)
        return AttackHandle(
            spec=spec,
            level="protocol",
            detail={"compromised": len(attacker.compromised)},
        )

    if spec.kind == "whitewash":
        providers = _whitewash_providers(system, spec.fraction)
        # Waves fire at start, start+gap, ... — evenly staggered so the
        # tail of the run still measures recovery after the final wave.
        events = [
            (
                spec.start + wave * max(spec.start, 1),
                partial(_whitewash_wave, providers=providers),
            )
            for wave in range(spec.count)
        ]
        return AttackHandle(
            spec=spec,
            level="protocol",
            events=events,
            detail={"providers": providers, "waves": spec.count},
        )

    if spec.kind == "dos":
        detail: dict = {"victims": []}
        events = [
            (
                spec.start,
                partial(
                    _dos_down, fraction=spec.fraction, protected=protected, detail=detail
                ),
            ),
            (spec.start + spec.period, partial(_dos_up, detail=detail)),
        ]
        return AttackHandle(spec=spec, level="protocol", events=events, detail=detail)

    if spec.kind == "spoofing":
        detail = {}
        spoof = partial(
            _spoof, attempts=spec.count, protected=protected, rng=rng, detail=detail
        )
        return AttackHandle(
            spec=spec, level="protocol", events=[(spec.start, spoof)], detail=detail
        )

    if spec.kind == "oscillation":
        # The oscillating models were installed at build time via
        # attack_build_opts; nothing to attach post-build.
        return AttackHandle(
            spec=spec, level="protocol", detail={"mechanism": "model factory"}
        )

    raise ConfigError(f"unattachable attack kind {spec.kind!r}")  # pragma: no cover
