"""§4.2 robustness arguments, turned into measurements (extension).

The paper argues four defences qualitatively; this experiment quantifies
each on a live system:

1. **Identity spoofing** — forged reports must be rejected 100%.
2. **Recommendation manipulation** — with attackers forging discovery
   replies (bad-mouthing good agents, ballot-stuffing poor ones), good
   agents must still reach trusted lists and the trained MSE must stay
   near the unattacked level.
3. **Sybil damping** — sybil agents get evicted like any poor agent; the
   trained MSE with sybils injected must stay well below the untrained
   (poisoned) level.
4. **DoS recovery** — knocking out the most popular agents dips accuracy
   at most transiently; after recovery transactions the MSE returns to the
   trained level.

Each probe is one campaign scenario on ``hirep`` (:mod:`repro.campaigns`):
the spoofing and DoS probes are mid-run attack events, and every windowed
reading is a slice of the cell's trace.  The *environmental* robustness
axis (message loss × crashes) is the ``degradation`` experiment.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, squared_errors
from repro.workloads.scenarios import REDUCED_LISTS

__all__ = ["run", "plan", "assemble"]

#: transactions before the DoS, under it, and after the restore.
DOS_TRAIN, DOS_PERIOD, DOS_RECOVERY = 120, 80, 80


def plan(network_size: int = 250, seed: int = 2006):
    """Spoofing, clean, recommendation, sybil and DoS cells on ``hirep``."""
    from repro.campaigns.specs import AttackSpec, Campaign, ScenarioSpec, WorkloadSpec
    from repro.exec.sweeps import SweepPlan

    overrides = {**REDUCED_LISTS, "tokens": 8}

    def workload(transactions: int, requestor: int | None = 0) -> WorkloadSpec:
        return WorkloadSpec(
            network_size=network_size,
            transactions=transactions,
            requestor=requestor,
            overrides=overrides,
        )

    campaign = Campaign(
        name="robust42",
        scenarios=(
            # Random requestors, so agents learn many identities first.
            ScenarioSpec(
                name="spoofing",
                workload=workload(80, requestor=None),
                attack=AttackSpec.spoofing(attempts=50, start=80),
            ),
            ScenarioSpec(name="clean", workload=workload(150)),
            ScenarioSpec(
                name="recommendation",
                workload=workload(150),
                attack=AttackSpec.recommendation(fraction=0.3),
            ),
            ScenarioSpec(
                name="sybil",
                workload=workload(200),
                attack=AttackSpec.sybil(count=15, compromised_fraction=0.15),
            ),
            ScenarioSpec(
                name="dos",
                workload=workload(DOS_TRAIN + DOS_PERIOD + DOS_RECOVERY),
                attack=AttackSpec.dos(fraction=0.25, start=DOS_TRAIN, period=DOS_PERIOD),
            ),
        ),
        systems=("hirep",),
        seeds=(seed,),
    )
    return SweepPlan(specs=campaign.compile(), assemble=assemble)


def _mean(values: list) -> float:
    return float(np.mean(values))


def _dos_readings(cell: dict) -> dict[str, float]:
    """MSE before the outage and after the restore, answers during it."""
    sq = squared_errors(cell)
    down, up = DOS_TRAIN, DOS_TRAIN + DOS_PERIOD
    return {
        "dos_before_mse": _mean(sq[down - 40 : down]),
        "dos_after_mse": _mean(sq[-40:]),
        "dos_answered_during": _mean(cell["trace"]["answered"][down:up]),
    }


def assemble(cells: list[dict]) -> ExperimentResult:
    """Fold the five cells (in :func:`plan` order) into the scorecard."""
    spoofing, clean, recommendation, sybil, dos = cells
    result = ExperimentResult(
        experiment_id="robust42",
        title="Robustness against §4.2 attacks",
        x_label="-",
        y_label="-",
    )

    # --- 1. spoofing ------------------------------------------------------
    rate = spoofing["trace"]["detail"]["rejection_rate"]
    rate = float("nan") if rate is None else rate
    result.scalars["spoofing_rejection_rate"] = rate
    result.note(
        "spoofed reports rejected — "
        + ("HOLDS (100%)" if rate == 1.0 else f"VIOLATED ({rate:.0%})")
    )

    # --- 2. recommendation manipulation ------------------------------------
    clean_mse = _mean(squared_errors(clean)[-50:])
    attacked_mse = _mean(squared_errors(recommendation)[-50:])
    result.scalars["recommendation_clean_mse"] = clean_mse
    result.scalars["recommendation_attacked_mse"] = attacked_mse
    result.note(
        "trained MSE under recommendation attack stays < 2.5x clean — "
        + ("HOLDS" if attacked_mse < max(2.5 * clean_mse, 0.1) else "VIOLATED")
    )

    # --- 3. sybil damping -----------------------------------------------------
    sq = squared_errors(sybil)
    early_mse = _mean(sq[:40])
    trained_mse = _mean(sq[-50:])
    result.scalars["sybil_early_mse"] = early_mse
    result.scalars["sybil_trained_mse"] = trained_mse
    result.note(
        "sybil agents filtered by expertise (trained < early MSE) — "
        + ("HOLDS" if trained_mse < early_mse else "VIOLATED")
    )

    # --- 4. DoS recovery ---------------------------------------------------
    readings = _dos_readings(dos)
    result.scalars.update(readings)
    result.note(
        "service continues during DoS (queries still answered) — "
        + ("HOLDS" if readings["dos_answered_during"] > 0 else "VIOLATED")
    )
    before_mse, after_mse = readings["dos_before_mse"], readings["dos_after_mse"]
    result.note(
        "MSE recovers after DoS (within 2x pre-attack) — "
        + ("HOLDS" if after_mse < max(2.0 * before_mse, 0.1) else "VIOLATED")
    )
    return result


def run(network_size: int = 250, seed: int = 2006) -> ExperimentResult:
    return plan(network_size, seed).run()
