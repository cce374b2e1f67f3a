"""Extension: accuracy with report-driven agents (no quality oracle).

The paper's simulation grants agents an innate evaluation quality (§5.2) —
good agents "just know".  §4.2.3 sketches the deployed story instead: "with
the authentic transaction reports, reputation agents can decide the trust
value of the peer using the next level computation model".  This experiment
drops the oracle entirely: every agent starts ignorant and computes trust
values only from the authenticated reports it accumulates, so accuracy must
be *earned* through the report channel the protocol secures.

Compared models:

* ``report-average`` — running mean of reports per subject;
* ``report-ewma``    — exponentially weighted (recency-biased) reports;
* ``oracle``         — the paper's quality-driven model, as the ceiling.

Expected shape: both report-driven curves start at the prior's MSE (0.25)
— far worse than the oracle — and descend as the requestor's reports teach
its agents.  On a small, repeatedly-visited provider pool they eventually
*beat* the oracle: reports carry exact observed outcomes while the oracle
model draws noisy ratings from [0.6, 1] / [0, 0.4], so accumulated
evidence out-resolves innate-but-noisy judgement.

It stays a function job, not a campaign cell: it builds each system with
``model_factory=`` and cycles a fixed provider pool, and a cell would need
a spec field for either.
"""

from __future__ import annotations

from repro.core.registry import build_system
from repro.core.trust_models import (
    EWMAReportModel,
    ReportAverageModel,
)
from repro.experiments.common import ExperimentResult, Series
from repro.workloads.scenarios import default_config

__all__ = ["run"]

MODEL_FACTORIES = {
    "report-average": lambda good, rng: ReportAverageModel(),
    "report-ewma": lambda good, rng: EWMAReportModel(alpha=0.3),
    "oracle": None,  # default quality-driven
}


def run(
    network_size: int = 250,
    transactions: int = 400,
    seed: int = 2006,
    window: int = 60,
    providers: int = 12,
) -> ExperimentResult:
    """Fixed requestor, small provider pool (so reports accumulate)."""
    result = ExperimentResult(
        experiment_id="report_models",
        title="Accuracy with report-driven agents (no quality oracle)",
        x_label="transactions",
        y_label="windowed MSE of trust value",
    )
    cfg = default_config(network_size=network_size, seed=seed).with_(
        trusted_agents=15,
        refill_threshold=10,
        agents_queried=6,
        onion_relays=2,
        poor_agent_fraction=0.0,  # no oracle ⇒ no innate quality split
    )
    for name, factory in MODEL_FACTORIES.items():
        system = build_system("hirep", cfg, model_factory=factory)
        system.mse.window = window
        system.bootstrap()
        system.reset_metrics()
        # Cycle a small provider pool so each provider accrues reports.
        pool = [ip for ip in range(1, providers + 1)]
        for i in range(transactions):
            system.run_transaction(requestor=0, provider=pool[i % len(pool)])
        series = system.mse.windowed_mse()
        result.series.append(
            Series(name=name, x=list(range(1, len(series) + 1)),
                   y=[float(v) for v in series])
        )
        result.scalars[f"{name}_tail_mse"] = system.mse.tail_mse()
        result.scalars[f"{name}_early_mse"] = float(series[min(20, len(series) - 1)])

    for name in ("report-average", "report-ewma"):
        early = result.scalars[f"{name}_early_mse"]
        tail = result.scalars[f"{name}_tail_mse"]
        result.note(
            f"{name}: reports teach ignorant agents (tail << early MSE) — "
            + ("HOLDS" if tail < 0.5 * early else "VIOLATED")
        )
    result.note(
        "untrained report agents start far worse than the oracle — "
        + (
            "HOLDS"
            if result.scalars["report-average_early_mse"]
            > 2 * result.scalars["oracle_early_mse"]
            else "VIOLATED"
        )
    )
    result.note(
        "accumulated exact reports out-resolve the noisy oracle on repeat "
        "providers — "
        + (
            "HOLDS"
            if result.scalars["report-average_tail_mse"]
            < result.scalars["oracle_tail_mse"]
            else "VIOLATED"
        )
    )
    return result
