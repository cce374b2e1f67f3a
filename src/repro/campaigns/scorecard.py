"""Robustness scorecard: what one campaign cell measures, and how cells
aggregate into per-(scenario, system) cards.

Cell metrics (all plain floats so payloads survive the job-cache JSON
round-trip):

* ``mse`` — tail MSE of the trust estimates under the scenario;
* ``detect_tx`` — time-to-detect: the first transaction index from which
  a ``window``-wide rolling MSE stays below ``threshold`` (``None`` when
  the system never pins the malicious population down);
* ``success_rate`` — fraction of transactions that got an answer;
* ``msgs_per_tx`` / ``retries_per_tx`` / ``drops_per_tx`` /
  ``churn_events_per_tx`` — overhead accounting;
* ``maintenance_msgs_per_tx`` — §3.4.3 list upkeep (agent discovery,
  discovery replies and control probes) per transaction;
* ``fault_stats`` — the fault plane's ``FaultStats.as_dict()`` (``None``
  without a plane);
* ``attack_level`` — ``protocol`` / ``config`` / ``none`` (see
  :mod:`repro.campaigns.attach`).

:func:`aggregate_cells` averages per-seed cells; the report layer then
adds degradation deltas against the campaign's clean reference cells.
The maintenance and fault-stats readings are per cell only (the
``degradation`` and ``churn`` experiments read them); no card averages
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.net.messages import Category

__all__ = [
    "DETECT_THRESHOLD",
    "DETECT_WINDOW",
    "RobustnessScorecard",
    "aggregate_cells",
    "cell_metrics",
    "degradation_deltas",
    "success_rate",
    "time_to_detect",
]

#: rolling-MSE detection defaults: "the trust estimates are back under
#: control" means a 10-transaction window averaging below 0.05.
DETECT_THRESHOLD = 0.05
DETECT_WINDOW = 10

#: metric keys that participate in degradation deltas vs the clean cell.
DELTA_METRICS = ("mse", "success_rate", "msgs_per_tx", "retries_per_tx")

#: traffic categories that are list upkeep rather than queries or reports.
MAINTENANCE_CATEGORIES = (
    Category.AGENT_DISCOVERY,
    Category.AGENT_DISCOVERY_REPLY,
    Category.CONTROL,
)


def time_to_detect(
    squared_errors: Sequence[float],
    *,
    threshold: float = DETECT_THRESHOLD,
    window: int = DETECT_WINDOW,
) -> int | None:
    """First index from which the rolling MSE stays below ``threshold``.

    Detection is *sustained*: every ``window``-wide mean from the returned
    index to the end of the run must sit below the threshold — a single
    lucky window during an oscillation's honest phase does not count.
    Returns ``None`` when no such index exists (including runs shorter
    than ``window``).
    """
    sq = [float(v) for v in squared_errors]
    n = len(sq)
    if n < window or window < 1:
        return None
    # Rolling means via a prefix sum, then scan from the right for the
    # earliest index where every later window is under threshold.
    prefix = [0.0]
    for v in sq:
        prefix.append(prefix[-1] + v)
    means = [
        (prefix[i + window] - prefix[i]) / window for i in range(n - window + 1)
    ]
    earliest: int | None = None
    for i in range(len(means) - 1, -1, -1):
        if means[i] < threshold:
            earliest = i
        else:
            break
    return earliest


def success_rate(outcomes: Sequence[Any]) -> float:
    """Fraction of transactions that produced a usable answer.

    hiREP outcomes carry ``answered`` (agents that responded), poll-style
    baselines carry ``voters``; systems with neither (purely local
    history) count a transaction as successful when it produced a real
    estimate.
    """
    if not outcomes:
        return 0.0
    hits = 0
    for o in outcomes:
        if o.answered > 0 or o.voters > 0:
            hits += 1
        elif o.asked == 0 and o.voters == 0 and not math.isnan(o.estimate):
            hits += 1
    return hits / len(outcomes)


def cell_metrics(
    system: Any,
    transactions: int,
    *,
    fault_plane: Any = None,
    churn_model: Any = None,
    attack_level: str = "none",
    detect_threshold: float = DETECT_THRESHOLD,
    detect_window: int = DETECT_WINDOW,
) -> dict:
    """Read one finished run's scorecard metrics off a live system."""
    tail = max(transactions // 3, min(5, transactions))
    sq = [float(v) for v in system.mse.squared_errors]
    retries = 0.0
    if hasattr(system, "retry_stats"):
        retries = system.retry_stats()["retries_sent"] / transactions
    drops = 0.0
    if fault_plane is not None:
        drops = fault_plane.stats.drops / transactions
    churn_events = 0.0
    if churn_model is not None:
        churn_events = (
            churn_model.stats.departures + churn_model.stats.rejoins
        ) / transactions
    maintenance = sum(
        system.counter.by_category.get(category, 0)
        for category in MAINTENANCE_CATEGORIES
    )
    mean_rt = system.response_times.mean()
    return {
        "mean_response_ms": None if math.isnan(mean_rt) else float(mean_rt),
        "attack_level": attack_level,
        "transactions": int(transactions),
        "mse": float(system.mse.tail_mse(tail)),
        "detect_tx": time_to_detect(
            sq, threshold=detect_threshold, window=detect_window
        ),
        "success_rate": success_rate(system.outcomes),
        "msgs_per_tx": system.counter.total / transactions,
        "retries_per_tx": float(retries),
        "drops_per_tx": float(drops),
        "churn_events_per_tx": float(churn_events),
        "maintenance_msgs_per_tx": maintenance / transactions,
        "fault_stats": None if fault_plane is None else fault_plane.stats.as_dict(),
    }


@dataclass
class RobustnessScorecard:
    """Aggregated robustness of one system under one scenario.

    ``metrics`` holds seed-averaged values; ``deltas`` (set by the report
    layer) holds attacked-minus-clean differences for
    :data:`DELTA_METRICS`.  ``degraded`` is true when any seed's cell
    failed — its structured error rides in ``errors``.
    """

    scenario: str
    system: str
    seeds: list[int] = field(default_factory=list)
    cells_ok: int = 0
    metrics: dict = field(default_factory=dict)
    deltas: dict | None = None
    degraded: bool = False
    errors: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "system": self.system,
            "seeds": list(self.seeds),
            "cells_ok": self.cells_ok,
            "metrics": dict(self.metrics),
            "deltas": None if self.deltas is None else dict(self.deltas),
            "degraded": self.degraded,
            "errors": list(self.errors),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RobustnessScorecard":
        return cls(
            scenario=d["scenario"],
            system=d["system"],
            seeds=list(d.get("seeds", [])),
            cells_ok=int(d.get("cells_ok", 0)),
            metrics=dict(d.get("metrics", {})),
            deltas=None if d.get("deltas") is None else dict(d["deltas"]),
            degraded=bool(d.get("degraded", False)),
            errors=list(d.get("errors", [])),
        )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def aggregate_cells(
    scenario: str, system: str, cells: list[dict]
) -> RobustnessScorecard:
    """Fold per-seed cell payloads into one scorecard.

    ``cells`` are ``campaign_cell`` payloads (in seed order).  Cells that
    carry a ``cell_error`` mark the card degraded and are excluded from
    the averages; ``detect_tx`` averages over detected seeds only, with
    ``detect_rate`` recording how many seeds detected at all.
    """
    card = RobustnessScorecard(scenario=scenario, system=system)
    ok: list[dict] = []
    for cell in cells:
        card.seeds.append(cell["seed"])
        error = cell.get("cell_error")
        if error is not None:
            card.degraded = True
            card.errors.append({"seed": cell["seed"], **error})
        else:
            ok.append(cell["scorecard"])
    card.cells_ok = len(ok)
    if not ok:
        return card

    metrics: dict = {}
    for key in (
        "mse",
        "success_rate",
        "msgs_per_tx",
        "retries_per_tx",
        "drops_per_tx",
        "churn_events_per_tx",
    ):
        metrics[key] = _mean([c[key] for c in ok])
    detected = [c["detect_tx"] for c in ok if c["detect_tx"] is not None]
    metrics["detect_tx"] = _mean([float(d) for d in detected]) if detected else None
    metrics["detect_rate"] = len(detected) / len(ok)
    timed = [c["mean_response_ms"] for c in ok if c.get("mean_response_ms") is not None]
    metrics["mean_response_ms"] = _mean(timed) if timed else None
    metrics["transactions"] = ok[0]["transactions"]
    levels = sorted({c["attack_level"] for c in ok})
    metrics["attack_level"] = levels[0] if len(levels) == 1 else "/".join(levels)
    card.metrics = metrics
    return card


def degradation_deltas(attacked: dict, clean: dict) -> dict:
    """Attacked-minus-clean metric deltas (the robustness headline)."""
    deltas: dict = {}
    for key in DELTA_METRICS:
        if key in attacked and key in clean:
            deltas[f"{key}_delta"] = attacked[key] - clean[key]
    return deltas
