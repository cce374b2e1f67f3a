"""§4.2 robustness arguments, turned into measurements (extension).

The paper argues four defences qualitatively; this experiment quantifies
each on a live system:

1. **Identity spoofing** — forged reports must be rejected 100%.
2. **Recommendation manipulation** — with attackers forging discovery
   replies (bad-mouthing good agents, ballot-stuffing poor ones), good
   agents must still reach trusted lists and the trained MSE must stay
   near the unattacked level.
3. **Sybil damping** — sybil agents get evicted like any poor agent; the
   trained MSE with sybils injected must stay well below the untrained
   (poisoned) level.
4. **DoS recovery** — knocking out the most popular agents dips accuracy
   at most transiently; after recovery transactions the MSE returns to the
   trained level.

The *environmental* robustness axis (message loss × crashes) is the
``degradation`` experiment, a list of campaign scenarios
(:mod:`repro.experiments.degradation`).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.dos import restore_agents, take_down_top_agents
from repro.attacks.spoofing import mount_spoofing_attack
from repro.core.registry import build_system
from repro.experiments.common import ExperimentResult
from repro.workloads.scenarios import default_config

__all__ = ["run", "main"]


def _small(network_size: int, seed: int):
    return default_config(network_size=network_size, seed=seed).with_(
        trusted_agents=20,
        refill_threshold=12,
        agents_queried=8,
        tokens=8,
        onion_relays=3,
    )


def run(network_size: int = 250, seed: int = 2006) -> ExperimentResult:
    # Imported here, not at module top: repro.campaigns sits above the
    # experiments layer in the import graph (its specs pull in repro.exec,
    # which renders progress via repro.experiments.common).
    from repro.campaigns.attach import attach_attack
    from repro.campaigns.specs import AttackSpec

    result = ExperimentResult(
        experiment_id="robust42",
        title="Robustness against §4.2 attacks",
        x_label="-",
        y_label="-",
    )
    rng = np.random.default_rng(seed + 1)

    # --- 1. spoofing ------------------------------------------------------
    system = build_system("hirep", _small(network_size, seed))
    system.bootstrap()
    # A handful of requestors so agents learn several identities.
    for req in (0, 1, 2, 3):
        system.run(20, requestor=req)
    # Target the agent that knows the most identities (worst case for the
    # defence — the forged victim nodeIDs are all in its key list).
    agent_ip = max(
        system.agents, key=lambda ip: len(system.agents[ip].public_key_list)
    )
    attacker_ip = next(ip for ip in range(4, network_size) if ip != agent_ip)
    report = mount_spoofing_attack(system, attacker_ip, agent_ip, attempts=50, rng=rng)
    result.scalars["spoofing_rejection_rate"] = report.rejection_rate
    result.note(
        "spoofed reports rejected — "
        + ("HOLDS (100%)" if report.rejection_rate == 1.0 else f"VIOLATED ({report.rejection_rate:.0%})")
    )

    # --- 2. recommendation manipulation ------------------------------------
    clean = build_system("hirep", _small(network_size, seed))
    clean.bootstrap()
    clean.reset_metrics()
    clean.run(150, requestor=0)
    clean_mse = clean.mse.tail_mse(50)

    attacked = build_system("hirep", _small(network_size, seed))
    attach_attack(attacked, AttackSpec.recommendation(fraction=0.3), rng)
    attacked.bootstrap()
    attacked.reset_metrics()
    attacked.run(150, requestor=0)
    attacked_mse = attacked.mse.tail_mse(50)
    result.scalars["recommendation_clean_mse"] = clean_mse
    result.scalars["recommendation_attacked_mse"] = attacked_mse
    result.note(
        "trained MSE under recommendation attack stays < 2.5x clean — "
        + ("HOLDS" if attacked_mse < max(2.5 * clean_mse, 0.1) else "VIOLATED")
    )

    # --- 3. sybil damping -----------------------------------------------------
    sybil_sys = build_system("hirep", _small(network_size, seed))
    attach_attack(
        sybil_sys, AttackSpec.sybil(count=15, compromised_fraction=0.15), rng
    )
    sybil_sys.bootstrap()
    sybil_sys.reset_metrics()
    sybil_sys.run(40, requestor=0)
    early_mse = float(np.mean(sybil_sys.mse.squared_errors[:40]))
    sybil_sys.run(160, requestor=0)
    trained_mse = sybil_sys.mse.tail_mse(50)
    result.scalars["sybil_early_mse"] = early_mse
    result.scalars["sybil_trained_mse"] = trained_mse
    result.note(
        "sybil agents filtered by expertise (trained < early MSE) — "
        + ("HOLDS" if trained_mse < early_mse else "VIOLATED")
    )

    # --- 4. DoS recovery ---------------------------------------------------
    dos_sys = build_system("hirep", _small(network_size, seed))
    dos_sys.bootstrap()
    dos_sys.reset_metrics()
    dos_sys.run(120, requestor=0)
    before_mse = dos_sys.mse.tail_mse(40)
    outcome = take_down_top_agents(
        dos_sys, count=max(2, len(dos_sys.agents) // 4), exclude={0}
    )
    dos_sys.run(80, requestor=0)
    during_answered = float(
        np.mean([o.answered for o in dos_sys.outcomes[-80:]])
    )
    restore_agents(dos_sys, outcome)
    dos_sys.run(80, requestor=0)
    after_mse = dos_sys.mse.tail_mse(40)
    result.scalars["dos_before_mse"] = before_mse
    result.scalars["dos_after_mse"] = after_mse
    result.scalars["dos_answered_during"] = during_answered
    result.note(
        "service continues during DoS (queries still answered) — "
        + ("HOLDS" if during_answered > 0 else "VIOLATED")
    )
    result.note(
        "MSE recovers after DoS (within 2x pre-attack) — "
        + ("HOLDS" if after_mse < max(2.0 * before_mse, 0.1) else "VIOLATED")
    )
    return result


def main() -> str:
    result = run()
    text = result.render()
    print(text)
    return text


if __name__ == "__main__":
    main()
