"""Multi-seed replication harness.

Every figure in EXPERIMENTS.md comes from one seeded run (like the
paper's).  This harness replicates an experiment across independent seeds
and reports mean ± normal-approximation CI for each scalar, so claims can
be checked for seed-robustness:

    from repro.experiments import fig7_malicious, replication
    rep = replication.replicate(fig7_malicious.run, seeds=range(5),
                                network_size=250, ...)
    rep.summary("hirep_mse_at_90")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.sim.stats import confidence_interval

__all__ = ["Replication", "replicate"]


@dataclass
class Replication:
    """Scalar samples across seeds for one experiment."""

    experiment_id: str
    seeds: list[int]
    samples: dict[str, list[float]] = field(default_factory=dict)
    results: list[ExperimentResult] = field(default_factory=list)

    def summary(self, scalar: str) -> dict[str, float]:
        values = np.asarray(self.samples[scalar], dtype=np.float64)
        values = values[np.isfinite(values)]
        lo, hi = confidence_interval(values)
        return {
            "n": int(values.size),
            "mean": float(values.mean()) if values.size else float("nan"),
            "std": float(values.std(ddof=1)) if values.size > 1 else 0.0,
            "ci_lo": lo,
            "ci_hi": hi,
        }

    @classmethod
    def from_results(
        cls, results: list[ExperimentResult], seeds
    ) -> "Replication":
        """Pool already-computed per-seed results (seed order preserved)."""
        seeds = [int(s) for s in seeds]
        if not results:
            raise ValueError("need at least one result")
        replication = cls(
            experiment_id=results[0].experiment_id, seeds=seeds
        )
        for result in results:
            replication.results.append(result)
            for key, value in result.scalars.items():
                replication.samples.setdefault(key, []).append(float(value))
        return replication

    def claim_always_holds(self, note_prefix: str) -> bool:
        """Whether a given claim note reported HOLDS in every replicate."""
        for result in self.results:
            for note in result.notes:
                if note.startswith(note_prefix) and "HOLDS" not in note:
                    return False
        return True

    def render(self) -> str:
        lines = [f"== replication of {self.experiment_id} over seeds {self.seeds} =="]
        for scalar in sorted(self.samples):
            s = self.summary(scalar)
            lines.append(
                f"  {scalar}: mean={s['mean']:.5g} ± std={s['std']:.3g} "
                f"(95% CI [{s['ci_lo']:.5g}, {s['ci_hi']:.5g}], n={s['n']})"
            )
        return "\n".join(lines)


def replicate(
    run: Callable[..., ExperimentResult],
    seeds,
    **kwargs,
) -> Replication:
    """Run ``run(seed=s, **kwargs)`` for each seed and pool the scalars.

    Serial, in seed order.  Parallel seeds are the CLI's ``--replicate
    --jobs N`` path, which submits them through the orchestrator
    (:func:`repro.exec.sweeps.replication_plan`).
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    results = [run(seed=seed, **kwargs) for seed in seeds]
    return Replication.from_results(results, seeds)
