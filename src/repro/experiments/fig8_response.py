"""Fig. 8 — cumulative response time of trust queries.

Paper: cumulative response time (ms) against transactions for pure voting
and hirep-n, where n is the onion relay count (10, 7, 5).  Expected shape:

* fewer relays ⇒ lower hiREP response time (hirep-5 < hirep-7 < hirep-10);
* "the average response time of hiREP is lower than that of the pure
  voting system" — polling everyone funnels hundreds of vote responses
  through the requestor's access link, which dominates the handful of
  onion hops hiREP pays.

Every curve is one campaign cell (:mod:`repro.campaigns`) with a random
requestor per transaction: voting, then hiREP at each relay count.  A
curve accumulates the trace's ``response_ms`` over the queries that
completed.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.experiments.common import ExperimentResult, Series

__all__ = ["run", "plan", "assemble", "RELAY_COUNTS"]

#: hirep-10 / hirep-7 / hirep-5.
RELAY_COUNTS = (10, 7, 5)


def plan(
    network_size: int = 1000,
    transactions: int = 200,
    seed: int = 2006,
    system: str = "hirep",
):
    """One voting cell, then one hiREP cell per relay count on ``system``."""
    from repro.campaigns.specs import Campaign, ScenarioSpec, WorkloadSpec
    from repro.exec.sweeps import SweepPlan

    def scenario(relays: int) -> ScenarioSpec:
        return ScenarioSpec(
            name=f"relays={relays}",
            workload=WorkloadSpec(
                network_size=network_size,
                transactions=transactions,
                requestor=None,
                overrides={"onion_relays": relays},
            ),
        )

    voting = Campaign(
        name="fig8-voting",
        scenarios=(scenario(RELAY_COUNTS[-1]),),
        systems=("voting",),
        seeds=(seed,),
    )
    hirep = Campaign(
        name="fig8-hirep",
        scenarios=tuple(scenario(relays) for relays in RELAY_COUNTS),
        systems=(system,),
        seeds=(seed,),
    )
    return SweepPlan(specs=voting.compile() + hirep.compile(), assemble=assemble)


def assemble(cells: list[dict]) -> ExperimentResult:
    """Fold the voting cell, then the hiREP cells, into the figure."""
    result = ExperimentResult(
        experiment_id="fig8",
        title="Cumulative response time of trust queries",
        x_label="transactions",
        y_label="cumulative response time (ms)",
    )
    names = ["voting"] + [f"hirep-{relays}" for relays in RELAY_COUNTS]
    for name, cell in zip(names, cells):
        times = [v for v in cell["trace"]["response_ms"] if v is not None]
        y = [float(v) for v in np.cumsum(times)]
        result.series.append(Series(name=name, x=list(range(1, len(y) + 1)), y=y))
        result.scalars[f"{name}_mean_ms"] = (
            float(np.mean(times)) if times else float("nan")
        )

    h5 = result.scalars["hirep-5_mean_ms"]
    h7 = result.scalars["hirep-7_mean_ms"]
    h10 = result.scalars["hirep-10_mean_ms"]
    vt = result.scalars["voting_mean_ms"]
    result.note(
        "paper claim: fewer relays -> faster — "
        + ("HOLDS" if h5 < h7 < h10 else "VIOLATED")
    )
    result.note(
        "paper claim: hiREP faster than voting — "
        + ("HOLDS" if max(h5, h7, h10) < vt else "VIOLATED")
    )
    return result


def run(
    network_size: int = 1000,
    transactions: int = 200,
    seed: int = 2006,
    system: str = "hirep",
) -> ExperimentResult:
    return plan(network_size, transactions, seed, system).run()
