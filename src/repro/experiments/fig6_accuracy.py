"""Fig. 6 — trust accuracy (MSE) vs transactions, 10% malicious.

Paper: voting is flat; hirep-θ (θ ∈ {0.4, 0.6, 0.8}) starts no worse than
voting and converges to a much lower MSE "after a training process (about
100 transactions)", with higher θ converging faster.

The training effect lives in one requestor's trusted-agent list, so the
workload fixes the requestor (see ``repro.workloads.transactions``).
Every curve is one campaign cell (:mod:`repro.campaigns`) with 10% poor
agents and 10% malicious voters: voting, then hiREP at each θ.  The
windowed MSE is a moving average over the cell's squared errors.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.experiments.common import ExperimentResult, Series, squared_errors
from repro.sim.stats import convergence_point, moving_average

__all__ = ["run", "plan", "assemble", "THRESHOLDS"]

#: hirep-4 / hirep-6 / hirep-8.
THRESHOLDS = (0.4, 0.6, 0.8)


def plan(
    network_size: int = 1000,
    transactions: int = 400,
    seed: int = 2006,
    window: int = 50,
    requestor: int = 0,
    system: str = "hirep",
):
    """One voting cell, then one hiREP cell per θ on ``system``."""
    from repro.campaigns.specs import Campaign, ScenarioSpec, WorkloadSpec
    from repro.exec.sweeps import SweepPlan

    def scenario(theta: float) -> ScenarioSpec:
        return ScenarioSpec(
            name=f"theta={theta:g}",
            workload=WorkloadSpec(
                network_size=network_size,
                transactions=transactions,
                requestor=requestor,
                overrides={
                    "eviction_threshold": theta,
                    "poor_agent_fraction": 0.10,
                    "malicious_fraction": 0.10,
                },
            ),
        )

    voting = Campaign(
        name="fig6-voting",
        scenarios=(scenario(THRESHOLDS[0]),),
        systems=("voting",),
        seeds=(seed,),
    )
    hirep = Campaign(
        name="fig6-hirep",
        scenarios=tuple(scenario(theta) for theta in THRESHOLDS),
        systems=(system,),
        seeds=(seed,),
    )
    return SweepPlan(
        specs=voting.compile() + hirep.compile(),
        assemble=partial(assemble, window=window),
    )


def assemble(cells: list[dict], *, window: int) -> ExperimentResult:
    """Fold the voting cell, then the hiREP cells, into the figure."""
    result = ExperimentResult(
        experiment_id="fig6",
        title="Trust accuracy vs transactions (10% malicious)",
        x_label="transactions",
        y_label="windowed MSE of trust value",
    )

    def curve(name: str, cell: dict) -> tuple[np.ndarray, float]:
        """Append the cell's windowed-MSE series; return it and its tail MSE."""
        errors = squared_errors(cell)
        windowed = moving_average(errors, window)
        x = list(range(1, len(errors) + 1))
        result.series.append(Series(name=name, x=x, y=[float(v) for v in windowed]))
        return windowed, float(np.mean(errors[-window:]))

    _, voting_tail = curve("voting", cells[0])
    for theta, cell in zip(THRESHOLDS, cells[1:]):
        name = f"hirep-{int(theta * 10)}"
        windowed, tail = curve(name, cell)
        result.scalars[f"{name}_tail_mse"] = tail
        # Convergence: where the windowed MSE settles into its final band
        # (the paper's "after a training process of about 100 transactions").
        report = convergence_point(windowed)
        result.scalars[f"{name}_convergence_tx"] = (
            float(report.index) if report.converged else float("nan")
        )

    result.scalars["voting_tail_mse"] = voting_tail
    tail_48 = result.scalars["hirep-4_tail_mse"]
    result.note(
        "paper claim: trained hiREP beats voting — "
        + ("HOLDS" if tail_48 < voting_tail else "VIOLATED")
    )
    return result


def run(
    network_size: int = 1000,
    transactions: int = 400,
    seed: int = 2006,
    window: int = 50,
    requestor: int = 0,
    system: str = "hirep",
) -> ExperimentResult:
    return plan(network_size, transactions, seed, window, requestor, system).run()
