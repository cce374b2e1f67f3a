"""Extension experiment: every registered reputation system on one world.

The paper compares hiREP against pure voting only; §2 surveys TrustMe,
local/limited sharing, and the structured-overlay systems EigenTrust
represents.  This experiment lines every system in the
:mod:`repro.core.registry` up on a bit-identical world and reports the
three paper metrics side by side, plus coverage — making the design space
the paper argues about measurable:

    local      zero traffic, no coverage
    gossip     O(fanout^rounds) sampled poll, distance-discounted votes
    hiREP      O(c) traffic, trained accuracy, onion anonymity
    voting     O(n) traffic, un-curated accuracy
    TrustMe    2 broadcasts/tx, remote storage without curation
    EigenTrust global scores, needs structured aggregation (traffic n/a)

Every row is one campaign cell (:mod:`repro.campaigns`), one ``Campaign``
per system in :data:`SYSTEMS` order, on the same world: the attacker
ratio is a collusion attack, the reduced agent lists are workload
overrides.  EigenTrust needs global mixing, so it runs three times the
transactions with random requestors; every other system serves
requestor 0.  Each number is read off the cell's trace, except local
sharing's coverage, which is its scorecard's ``success_rate``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.experiments.common import ExperimentResult, format_table, squared_errors
from repro.workloads.scenarios import REDUCED_LISTS

__all__ = ["run", "plan", "assemble", "render", "SYSTEMS"]

#: registry name -> scalar prefix, in the table's display order.
SYSTEMS = {
    "hirep": "hirep",
    "voting": "voting",
    "credibility": "credvoting",
    "trustme": "trustme",
    "local": "local",
    "eigentrust": "eigentrust",
    "gossip": "gossip",
}


def plan(
    network_size: int = 300,
    transactions: int = 150,
    seed: int = 2006,
    attacker_ratio: float = 0.2,
):
    """One campaign cell per reputation system; assembles the table."""
    from repro.campaigns.specs import AttackSpec, Campaign, ScenarioSpec, WorkloadSpec
    from repro.exec.sweeps import SweepPlan

    def campaign(system: str) -> Campaign:
        eigentrust = system == "eigentrust"
        workload = WorkloadSpec(
            network_size=network_size,
            transactions=3 * transactions if eigentrust else transactions,
            requestor=None if eigentrust else 0,
            overrides=REDUCED_LISTS,
        )
        scenario = ScenarioSpec(
            name=f"attackers={attacker_ratio:g}",
            workload=workload,
            attack=AttackSpec.collusion(attacker_ratio),
        )
        return Campaign(
            name=f"baselines-{system}",
            scenarios=(scenario,),
            systems=(system,),
            seeds=(seed,),
        )

    return SweepPlan(
        specs=[spec for system in SYSTEMS for spec in campaign(system).compile()],
        assemble=partial(assemble, transactions=transactions),
    )


def assemble(cells: list[dict], *, transactions: int) -> ExperimentResult:
    """Fold one cell per system (in :data:`SYSTEMS` order) into the table."""
    result = ExperimentResult(
        experiment_id="baselines",
        title="All reputation systems on one world",
        x_label="-",
        y_label="-",
    )
    for system, cell in zip(SYSTEMS, cells):
        prefix = SYSTEMS[system]
        trace = cell["trace"]
        # hiREP bills its trust process apart; the baselines bill their
        # floods through the message counter.
        traffic = trace["trust_messages" if system == "hirep" else "messages"]
        result.scalars[f"{prefix}_msgs_per_tx"] = float(np.mean(traffic))
        if system in ("hirep", "voting"):
            times = [v for v in trace["response_ms"] if v is not None]
            result.scalars[f"{prefix}_resp_ms"] = float(np.mean(times))
        if system == "local":
            result.scalars["local_coverage"] = cell["scorecard"]["success_rate"]
        result.scalars[f"{prefix}_mse"] = float(
            np.mean(squared_errors(cell)[-(transactions // 3) :])
        )

    # The decomposition insight: credibility-weighted voting matches
    # hiREP's accuracy (curation) but not its traffic (hierarchy).
    result.note(
        "curation-vs-hierarchy: cred. voting accuracy ~ hiREP, traffic ~ voting — "
        + (
            "HOLDS"
            if result.scalars["credvoting_mse"] < result.scalars["voting_mse"]
            and result.scalars["credvoting_msgs_per_tx"]
            > 5 * result.scalars["hirep_msgs_per_tx"]
            else "VIOLATED"
        )
    )

    # Headline orderings the design space predicts.
    result.note(
        "traffic ordering local < gossip < voting — "
        + (
            "HOLDS"
            if result.scalars["local_msgs_per_tx"]
            < result.scalars["gossip_msgs_per_tx"]
            < result.scalars["voting_msgs_per_tx"]
            else "VIOLATED"
        )
    )
    result.note(
        "traffic ordering local < hirep < voting — "
        + (
            "HOLDS"
            if result.scalars["local_msgs_per_tx"]
            < result.scalars["hirep_msgs_per_tx"]
            < result.scalars["voting_msgs_per_tx"]
            else "VIOLATED"
        )
    )
    result.note(
        "accuracy: trained hiREP best of the unstructured systems — "
        + (
            "HOLDS"
            if result.scalars["hirep_mse"]
            <= min(
                result.scalars["voting_mse"],
                result.scalars["trustme_mse"],
                result.scalars["local_mse"],
            )
            else "VIOLATED"
        )
    )
    return result


def run(
    network_size: int = 300,
    transactions: int = 150,
    seed: int = 2006,
    attacker_ratio: float = 0.2,
) -> ExperimentResult:
    return plan(network_size, transactions, seed, attacker_ratio).run()


def render(result: ExperimentResult) -> str:
    s = result.scalars
    rows = [
        ("hiREP", f"{s['hirep_msgs_per_tx']:.0f}", f"{s['hirep_mse']:.4f}", f"{s['hirep_resp_ms']:.0f}"),
        ("pure voting", f"{s['voting_msgs_per_tx']:.0f}", f"{s['voting_mse']:.4f}", f"{s['voting_resp_ms']:.0f}"),
        ("cred. voting", f"{s['credvoting_msgs_per_tx']:.0f}", f"{s['credvoting_mse']:.4f}", "-"),
        ("TrustMe", f"{s['trustme_msgs_per_tx']:.0f}", f"{s['trustme_mse']:.4f}", "-"),
        ("local sharing", f"{s['local_msgs_per_tx']:.0f}", f"{s['local_mse']:.4f}", "-"),
        ("EigenTrust/DHT", f"{s['eigentrust_msgs_per_tx']:.0f}", f"{s['eigentrust_mse']:.4f}", "-"),
        ("gossip", f"{s['gossip_msgs_per_tx']:.0f}", f"{s['gossip_mse']:.4f}", "-"),
    ]
    text = format_table(
        ["system", "msgs/tx", "tail MSE", "mean resp (ms)"],
        rows,
        title=result.title,
    )
    text += "\n" + "\n".join(f"  note: {n}" for n in result.notes)
    return text
