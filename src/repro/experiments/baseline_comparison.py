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

System kind is a first-class sweep dimension: ``plan()`` fans out one
orchestrator job per system, each cell cached under its
``system="<name>"`` kwarg like any other JobSpec dimension.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.registry import build_system
from repro.experiments.common import ExperimentResult, format_table
from repro.workloads.scenarios import default_config

__all__ = ["run", "plan", "system_cell", "assemble_baselines", "SYSTEMS", "main"]

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


def _comparison_config(network_size: int, seed: int, attacker_ratio: float):
    return default_config(network_size=network_size, seed=seed).with_(
        poor_agent_fraction=attacker_ratio,
        malicious_fraction=attacker_ratio,
        trusted_agents=20,
        refill_threshold=12,
        agents_queried=8,
        onion_relays=3,
    )


def system_cell(
    system: str,
    network_size: int = 300,
    transactions: int = 150,
    seed: int = 2006,
    attacker_ratio: float = 0.2,
) -> dict:
    """Run one reputation system over the shared world; return its scalars.

    The picklable per-job entry point: worker processes call this by
    import path, so the payload must survive a JSON round-trip.  The
    ``system`` kwarg is the sweep dimension — one cache entry per
    (system, cell).
    """
    cfg = _comparison_config(network_size, seed, attacker_ratio)
    instance = build_system(system, cfg)
    scalars: dict[str, float] = {}
    if system == "hirep":
        instance.bootstrap()
        instance.reset_metrics()
        instance.run(transactions, requestor=0)
        scalars["msgs_per_tx"] = float(
            np.mean([o.trust_messages for o in instance.outcomes])
        )
        scalars["resp_ms"] = instance.response_times.mean()
    elif system == "eigentrust":
        instance.run(transactions * 3)  # needs global mixing
        scalars["msgs_per_tx"] = float(
            np.mean([o.messages for o in instance.outcomes])
        )
    else:
        instance.run(transactions, requestor=0)
        scalars["msgs_per_tx"] = float(
            np.mean([o.messages for o in instance.outcomes])
        )
        if system == "voting":
            scalars["resp_ms"] = instance.response_times.mean()
        if system == "local":
            scalars["coverage"] = instance.coverage()
    scalars["mse"] = instance.mse.tail_mse(transactions // 3)
    return scalars


def assemble_baselines(
    values: list[dict], systems: list[str]
) -> ExperimentResult:
    """Fold per-system scalar payloads (in ``systems`` order) into the result.

    Module-level (bound with :func:`functools.partial`) so the assemble
    callable pickles and stays inside the fingerprinted module — see lint
    rule EXC001.
    """
    result = ExperimentResult(
        experiment_id="baselines",
        title="All reputation systems on one world",
        x_label="-",
        y_label="-",
    )
    for system, scalars in zip(systems, values):
        prefix = SYSTEMS[system]
        for key, value in scalars.items():
            result.scalars[f"{prefix}_{key}"] = value

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


def plan(
    network_size: int = 300,
    transactions: int = 150,
    seed: int = 2006,
    attacker_ratio: float = 0.2,
):
    """One orchestrator job per reputation system; assembles the table."""
    from repro.exec.job import JobSpec
    from repro.exec.sweeps import SweepPlan

    systems = list(SYSTEMS)
    specs = [
        JobSpec(
            module=__name__,
            func="system_cell",
            kwargs={
                "system": system,
                "network_size": network_size,
                "transactions": transactions,
                "seed": seed,
                "attacker_ratio": attacker_ratio,
            },
            label=f"baselines[{system}]",
        )
        for system in systems
    ]
    return SweepPlan(
        specs=specs, assemble=partial(assemble_baselines, systems=systems)
    )


def run(
    network_size: int = 300,
    transactions: int = 150,
    seed: int = 2006,
    attacker_ratio: float = 0.2,
) -> ExperimentResult:
    return plan(network_size, transactions, seed, attacker_ratio).run()


def render_result(result: ExperimentResult) -> str:
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


def main() -> str:
    text = render_result(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
