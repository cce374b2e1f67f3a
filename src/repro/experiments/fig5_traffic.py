"""Fig. 5 — trust-query traffic: hiREP vs pure voting.

Paper: cumulative messages (×10²) against transactions, with voting run in
networks of average degree 2, 3 and 4 and a single hiREP curve (its traffic
does not depend on the overlay degree).  Expected shape:

* voting grows with network density (voting-4 > voting-3 > voting-2);
* hiREP is flat per-transaction and "less than ½ of that produced in pure
  voting" even against voting-2.

Every curve is one campaign cell (:mod:`repro.campaigns`) with a random
requestor per transaction: voting on overlays of degree 2, 3 and 4, then
hiREP on the default overlay.  Voting bills its floods through the message
counter, so its curves read the trace's ``messages``; hiREP's reads
``trust_messages``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.experiments.common import ExperimentResult, Series

__all__ = ["run", "plan", "assemble", "VOTING_DEGREES"]

VOTING_DEGREES = (2.0, 3.0, 4.0)


def plan(
    network_size: int = 1000,
    transactions: int = 300,
    seed: int = 2006,
    system: str = "hirep",
):
    """One voting cell per degree, then one hiREP cell on ``system``
    (``hirep`` or ``hirep-array``)."""
    from repro.campaigns.specs import Campaign, ScenarioSpec, TopologySpec, WorkloadSpec
    from repro.exec.sweeps import SweepPlan

    workload = WorkloadSpec(
        network_size=network_size, transactions=transactions, requestor=None
    )
    voting = Campaign(
        name="fig5-voting",
        scenarios=tuple(
            ScenarioSpec(
                name=f"degree={degree:g}",
                workload=workload,
                topology=TopologySpec(avg_neighbors=degree),
            )
            for degree in VOTING_DEGREES
        ),
        systems=("voting",),
        seeds=(seed,),
    )
    hirep = Campaign(
        name="fig5-hirep",
        scenarios=(ScenarioSpec(name="default", workload=workload),),
        systems=(system,),
        seeds=(seed,),
    )
    return SweepPlan(
        specs=voting.compile() + hirep.compile(),
        assemble=partial(assemble, transactions=transactions),
    )


def assemble(cells: list[dict], *, transactions: int) -> ExperimentResult:
    """Fold the voting cells, then the hiREP cell, into the figure."""
    result = ExperimentResult(
        experiment_id="fig5",
        title="Trust query traffic cost of hiREP vs pure voting",
        x_label="transactions",
        y_label="cumulative messages (x10^2)",
    )
    x = list(range(1, transactions + 1))
    for degree, cell in zip(VOTING_DEGREES, cells):
        cumulative = np.cumsum(cell["trace"]["messages"]) / 100.0
        result.series.append(
            Series(name=f"voting-{int(degree)}", x=x, y=[float(v) for v in cumulative])
        )

    # The paper counts "messages induced in the trust query process":
    # query + response + report traffic (all onion hops included).
    trust = np.asarray(
        cells[-1]["trace"]["trust_messages"], dtype=np.float64
    ).cumsum() / 100.0
    result.series.append(Series(name="hirep", x=x, y=[float(v) for v in trust]))

    v2 = result.get("voting-2").final()
    hp = result.get("hirep").final()
    result.scalars["hirep_over_voting2"] = hp / v2 if v2 else float("nan")
    result.scalars["hirep_msgs_per_tx"] = hp * 100.0 / transactions
    result.note(
        "paper claim: hirep < 1/2 of voting-2 — "
        + ("HOLDS" if hp < 0.5 * v2 else "VIOLATED")
    )
    return result


def run(
    network_size: int = 1000,
    transactions: int = 300,
    seed: int = 2006,
    system: str = "hirep",
) -> ExperimentResult:
    """``system`` names the registry backend for the hiREP curve
    (``hirep`` or ``hirep-array``); the voting baselines are unaffected."""
    return plan(network_size, transactions, seed, system).run()
