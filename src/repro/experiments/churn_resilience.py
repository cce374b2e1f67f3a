"""Extension: accuracy and maintenance cost under increasing churn.

§3.4.3's machinery (backup cache, probing, rediscovery) exists because
unstructured P2P populations churn; the paper never measures it.  This
experiment sweeps the per-transaction departure probability and reports,
with the backup cache enabled:

* service continuity — the fraction of queries still answered;
* trained accuracy — tail MSE;
* maintenance overhead — discovery + probe messages per transaction.

Every rate is one campaign scenario (:mod:`repro.campaigns`): a
:class:`~repro.campaigns.specs.ChurnSpec` the cell steps between
transactions on its own stream, the requestor shielded.  :func:`plan` is
the cells ``Campaign.compile()`` emits; ``run()`` runs them in-process.

Expected shape: accuracy degrades gracefully (agents are replaceable, the
community is large — the same §4.2.4 argument as for DoS), while
maintenance traffic grows with churn since lists need constant repair.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.common import ExperimentResult, Series
from repro.workloads.scenarios import REDUCED_LISTS

__all__ = ["run", "plan", "assemble", "CHURN_RATES"]

CHURN_RATES = (0.0, 0.02, 0.05, 0.10)


def plan(
    network_size: int = 250,
    transactions: int = 200,
    seed: int = 2006,
    churn_rates: tuple[float, ...] = CHURN_RATES,
    system: str = "hirep",
):
    """One campaign cell per churn rate, on ``system``; departed peers
    rejoin with probability 0.4."""
    from repro.campaigns.specs import Campaign, ChurnSpec, ScenarioSpec, WorkloadSpec
    from repro.exec.sweeps import SweepPlan

    churn_rates = tuple(churn_rates)
    workload = WorkloadSpec(
        network_size=network_size, transactions=transactions, overrides=REDUCED_LISTS
    )
    campaign = Campaign(
        name="churn",
        scenarios=tuple(
            ScenarioSpec(
                name=f"leave={rate:g}",
                workload=workload,
                churn=ChurnSpec(leave_prob=rate, rejoin_prob=0.4),
            )
            for rate in churn_rates
        ),
        systems=(system,),
        seeds=(seed,),
    )
    return SweepPlan(
        specs=campaign.compile(), assemble=partial(assemble, churn_rates=churn_rates)
    )


def assemble(cells: list[dict], *, churn_rates: tuple[float, ...]) -> ExperimentResult:
    """Fold the cells' scorecards (one per rate, in order) into the sweep."""
    result = ExperimentResult(
        experiment_id="churn",
        title="Accuracy and maintenance cost under churn",
        x_label="per-transaction leave probability",
        y_label="(per series)",
    )
    cards = [cell["scorecard"] for cell in cells]
    xs = list(churn_rates)
    mse_y = [card["mse"] for card in cards]
    answered_y = [card["success_rate"] for card in cards]
    maintenance_y = [card["maintenance_msgs_per_tx"] for card in cards]
    result.series.append(Series(name="tail_mse", x=xs, y=mse_y))
    result.series.append(Series(name="answered_fraction", x=xs, y=answered_y))
    result.series.append(Series(name="maintenance_msgs_per_tx", x=xs, y=maintenance_y))

    result.note(
        "service continues under heavy churn (most queries answered) — "
        + ("HOLDS" if answered_y[-1] > 0.7 else "VIOLATED")
    )
    result.note(
        "accuracy degrades gracefully (MSE < 3x the churn-free level) — "
        + ("HOLDS" if mse_y[-1] < max(3 * mse_y[0], 0.15) else "VIOLATED")
    )
    result.note(
        "maintenance traffic grows with churn — "
        + ("HOLDS" if maintenance_y[-1] > maintenance_y[0] else "VIOLATED")
    )
    return result


def run(
    network_size: int = 250,
    transactions: int = 200,
    seed: int = 2006,
    churn_rates: tuple[float, ...] = CHURN_RATES,
    system: str = "hirep",
) -> ExperimentResult:
    return plan(network_size, transactions, seed, churn_rates, system).run()
