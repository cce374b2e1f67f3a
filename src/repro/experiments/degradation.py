"""Graceful-degradation sweep: message loss × node crashes (extension).

The environmental robustness axis next to §4.2's attacks: every loss ×
crash cell is one campaign scenario (:mod:`repro.campaigns`) — uniform
message loss and staggered crash windows from a
:class:`~repro.campaigns.specs.FaultSpec`, with the timeout/retry plane
armed (2 s deadline, 2 retries, 3-miss parking) through the workload's
config overrides.  :func:`plan` is the cells ``Campaign.compile()``
emits, so ``hirep-experiments degradation --jobs N`` fans them across
worker processes and ``run()`` runs the same jobs in-process.  Reported
per crash fraction, as functions of the loss rate:

* ``mse`` — tail MSE of the trust estimates;
* ``coverage`` — fraction of transactions with an answer;
* ``retries_per_tx`` — retry traffic the deadline plane spent.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.common import ExperimentResult, Series

__all__ = ["run", "plan", "assemble", "main"]

#: the reduced lists the extension sweeps run with, plus the deadline plane.
OVERRIDES = {
    "trusted_agents": 20,
    "refill_threshold": 12,
    "agents_queried": 8,
    "tokens": 8,
    "onion_relays": 3,
    "query_timeout_ms": 2_000.0,
    "max_query_retries": 2,
    "agent_miss_limit": 3,
}


def plan(
    network_size: int = 120,
    seed: int = 2006,
    transactions: int = 40,
    loss_rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3),
    crash_fractions: tuple[float, ...] = (0.0, 0.15),
):
    """One campaign cell per loss × crash point, on ``hirep``, crash-major
    (the result's series order)."""
    from repro.campaigns.specs import Campaign, FaultSpec, ScenarioSpec, WorkloadSpec
    from repro.exec.sweeps import SweepPlan

    loss_rates = tuple(loss_rates)
    crash_fractions = tuple(crash_fractions)
    workload = WorkloadSpec(
        network_size=network_size, transactions=transactions, overrides=OVERRIDES
    )
    campaign = Campaign(
        name="degradation",
        scenarios=tuple(
            ScenarioSpec(
                name=f"crash={crash_fraction:g},loss={loss:g}",
                workload=workload,
                fault=FaultSpec(loss=loss, crash_fraction=crash_fraction),
            )
            for crash_fraction in crash_fractions
            for loss in loss_rates
        ),
        systems=("hirep",),
        seeds=(seed,),
    )
    return SweepPlan(
        specs=campaign.compile(),
        assemble=partial(
            assemble, loss_rates=loss_rates, crash_fractions=crash_fractions
        ),
    )


def assemble(
    cells: list[dict],
    *,
    loss_rates: tuple[float, ...],
    crash_fractions: tuple[float, ...],
) -> ExperimentResult:
    """Fold the cells' scorecards (in :func:`plan` order) into the sweep."""
    result = ExperimentResult(
        experiment_id="degradation",
        title="Graceful degradation under message loss and crashes",
        x_label="uniform message-loss probability",
        y_label="(per series)",
    )
    worst_stats: dict[str, float] = {}
    grid = iter(cell["scorecard"] for cell in cells)
    for crash_fraction in crash_fractions:
        mse_y: list[float] = []
        coverage_y: list[float] = []
        retries_y: list[float] = []
        for _loss in loss_rates:
            card = next(grid)
            mse_y.append(card["mse"])
            coverage_y.append(card["success_rate"])
            retries_y.append(card["retries_per_tx"])
            if card["fault_stats"] is not None:
                worst_stats = card["fault_stats"]
        tag = f"crash={crash_fraction:g}"
        result.series.append(Series(name=f"mse[{tag}]", x=list(loss_rates), y=mse_y))
        result.series.append(
            Series(name=f"coverage[{tag}]", x=list(loss_rates), y=coverage_y)
        )
        result.series.append(
            Series(name=f"retries_per_tx[{tag}]", x=list(loss_rates), y=retries_y)
        )
    for key, value in worst_stats.items():
        result.scalars[f"fault_{key}"] = float(value)

    baseline_cov = result.get(f"coverage[crash={crash_fractions[0]:g}]").y[0]
    worst_cov = min(min(s.y) for s in result.series if s.name.startswith("coverage"))
    result.scalars["coverage_fault_free"] = baseline_cov
    result.scalars["coverage_worst_cell"] = worst_cov
    result.note(
        "retries keep queries completing under 20% loss (coverage > 0.5 in "
        "every swept cell) — "
        + ("HOLDS" if worst_cov > 0.5 else "VIOLATED")
    )
    retry_series = [s for s in result.series if s.name.startswith("retries_per_tx")]
    monotone = all(
        s.y[i] <= s.y[i + 1] + 1e-9
        for s in retry_series
        for i in range(len(s.y) - 1)
    )
    result.note(
        "retry traffic grows with the loss rate (degradation is paid in "
        "retries, not silence) — " + ("HOLDS" if monotone else "MIXED")
    )
    return result


def run(
    network_size: int = 120,
    seed: int = 2006,
    transactions: int = 40,
    loss_rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3),
    crash_fractions: tuple[float, ...] = (0.0, 0.15),
) -> ExperimentResult:
    return plan(network_size, seed, transactions, loss_rates, crash_fractions).run()


def main() -> str:
    result = run()
    text = result.render()
    print(text)
    return text


if __name__ == "__main__":
    main()
