"""Fig. 7 — trust accuracy vs attacker ratio.

Paper: voting degrades fast as the attacker ratio grows; hiREP degrades
slowly because inconsistent agents lose their voice through expertise
maintenance.  Two headline claims:

* voting can be *more* accurate when attackers are very few (it averages
  hundreds of votes, so its variance is tiny) — a crossover at small ratios;
* "in an extreme case that 90% of reputation agents are poor performed,
  MSE of trust evaluation accuracy in hiREP is still under 25%".

Every ratio is a collusion campaign cell (:mod:`repro.campaigns`): for
hiREP the ratio sets the fraction of *reputation agents* that are poor,
for voting the fraction of *voters* that are malicious — the paper's
reading.  hiREP trains for ``train_transactions`` and is scored on the
``measure_transactions`` after them; voting has nothing to train and is
scored on a run of ``measure_transactions``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.experiments.common import ExperimentResult, Series, squared_errors
from repro.sim.stats import crossover_index

__all__ = ["run", "plan", "assemble", "RATIOS"]

RATIOS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def plan(
    network_size: int = 1000,
    train_transactions: int = 200,
    measure_transactions: int = 100,
    seed: int = 2006,
    ratios: tuple[float, ...] = RATIOS,
):
    """One collusion cell per ratio on ``hirep``, then one per ratio on
    ``voting``."""
    from repro.campaigns.specs import AttackSpec, Campaign, ScenarioSpec, WorkloadSpec
    from repro.exec.sweeps import SweepPlan

    ratios = tuple(ratios)

    def campaign(system: str, transactions: int) -> Campaign:
        workload = WorkloadSpec(network_size=network_size, transactions=transactions)
        return Campaign(
            name=f"fig7-{system}",
            scenarios=tuple(
                ScenarioSpec(
                    name=f"ratio={ratio:g}",
                    workload=workload,
                    attack=AttackSpec.collusion(ratio),
                )
                for ratio in ratios
            ),
            systems=(system,),
            seeds=(seed,),
        )

    hirep = campaign("hirep", train_transactions + measure_transactions)
    voting = campaign("voting", measure_transactions)
    return SweepPlan(
        specs=hirep.compile() + voting.compile(),
        assemble=partial(assemble, ratios=ratios, train_transactions=train_transactions),
    )


def assemble(
    cells: list[dict], *, ratios: tuple[float, ...], train_transactions: int
) -> ExperimentResult:
    """Fold the hiREP cells, then the voting cells, into the figure."""
    result = ExperimentResult(
        experiment_id="fig7",
        title="Trust accuracy vs malicious-node ratio",
        x_label="attacker ratio",
        y_label="MSE of trust value",
    )
    xs = list(ratios)
    hirep_y = [
        float(np.mean(squared_errors(cell)[train_transactions:]))
        for cell in cells[: len(ratios)]
    ]
    voting_y = [float(np.mean(squared_errors(cell))) for cell in cells[len(ratios) :]]
    result.series.append(Series(name="hirep", x=xs, y=hirep_y))
    result.series.append(Series(name="voting", x=xs, y=voting_y))

    cross = crossover_index(hirep_y, voting_y)
    result.scalars["crossover_ratio"] = (
        xs[cross] if cross is not None else float("nan")
    )
    result.scalars["hirep_mse_at_90"] = hirep_y[-1] if xs[-1] >= 0.9 else float("nan")
    result.note(
        "paper claim: hiREP MSE < 0.25 at 90% attackers — "
        + ("HOLDS" if hirep_y[-1] < 0.25 else "VIOLATED")
    )
    result.note(
        "paper claim: voting degrades faster than hiREP — "
        + (
            "HOLDS"
            if (voting_y[-1] - voting_y[0]) > (hirep_y[-1] - hirep_y[0])
            else "VIOLATED"
        )
    )
    return result


def run(
    network_size: int = 1000,
    train_transactions: int = 200,
    measure_transactions: int = 100,
    seed: int = 2006,
    ratios: tuple[float, ...] = RATIOS,
) -> ExperimentResult:
    return plan(network_size, train_transactions, measure_transactions, seed, ratios).run()
