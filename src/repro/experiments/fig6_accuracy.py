"""Fig. 6 — trust accuracy (MSE) vs transactions, 10% malicious.

Paper: voting is flat; hirep-θ (θ ∈ {0.4, 0.6, 0.8}) starts no worse than
voting and converges to a much lower MSE "after a training process (about
100 transactions)", with higher θ converging faster.

The training effect lives in one requestor's trusted-agent list, so the
workload fixes the requestor (see ``repro.workloads.transactions``).
"""

from __future__ import annotations

from repro.core.registry import build_system
from repro.experiments.common import ExperimentResult, Series
from repro.sim.stats import convergence_point
from repro.workloads.scenarios import fig6_config

__all__ = ["run", "main", "THRESHOLDS"]

#: hirep-4 / hirep-6 / hirep-8.
THRESHOLDS = (0.4, 0.6, 0.8)


def run(
    network_size: int = 1000,
    transactions: int = 400,
    seed: int = 2006,
    window: int = 50,
    requestor: int = 0,
    system: str = "hirep",
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig6",
        title="Trust accuracy vs transactions (10% malicious)",
        x_label="transactions",
        y_label="windowed MSE of trust value",
    )
    x = list(range(1, transactions + 1))

    cfg = fig6_config(0.4, network_size=network_size, seed=seed)
    voting = build_system("voting", cfg)
    voting.mse.window = window
    voting.run(transactions, requestor=requestor)
    result.series.append(
        Series(name="voting", x=x, y=[float(v) for v in voting.mse.windowed_mse()])
    )

    for theta in THRESHOLDS:
        cfg = fig6_config(theta, network_size=network_size, seed=seed)
        hirep = build_system(system, cfg)
        hirep.mse.window = window
        hirep.bootstrap()
        hirep.reset_metrics()
        hirep.run(transactions, requestor=requestor)
        name = f"hirep-{int(theta * 10)}"
        result.series.append(
            Series(name=name, x=x, y=[float(v) for v in hirep.mse.windowed_mse()])
        )
        result.scalars[f"{name}_tail_mse"] = hirep.mse.tail_mse()
        # Convergence: where the windowed MSE settles into its final band
        # (the paper's "after a training process of about 100 transactions").
        report = convergence_point(hirep.mse.windowed_mse())
        result.scalars[f"{name}_convergence_tx"] = (
            float(report.index) if report.converged else float("nan")
        )

    result.scalars["voting_tail_mse"] = voting.mse.tail_mse()
    tail_48 = result.scalars["hirep-4_tail_mse"]
    result.note(
        "paper claim: trained hiREP beats voting — "
        + ("HOLDS" if tail_48 < result.scalars["voting_tail_mse"] else "VIOLATED")
    )
    return result


def main() -> str:
    result = run()
    text = result.render()
    print(text)
    return text


if __name__ == "__main__":
    main()
