"""SLO reporting: turn a load run's telemetry into the numbers that matter.

The summary dict is the `hirep-serve` contract: transaction counts
(offered/completed/lost), wall-clock latency percentiles (p50/p95/p99 +
mean) per phase — ``transaction`` end-to-end, ``query`` (start to
estimate), ``report`` (settlement + report delivery) — throughput, and
message cost (msgs/tx, frames, bytes).  Percentiles come from the raw
span durations, not histogram buckets, so they are exact for the run
(:func:`repro.sim.stats.summarize`, linear interpolation).

``hirep-serve load --telemetry`` stores it in the run's bundle
(``meta.json``, key ``"slo"``); :func:`repro.obs.slo.render_slo` renders
it, for ``load``'s stdout and for ``hirep-obs summarize`` alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.slo import SLO_PHASES
from repro.sim.stats import summarize

if TYPE_CHECKING:
    from repro.serve.load import LoadReport
    from repro.serve.system import ServeSystem

__all__ = ["slo_summary"]


def slo_summary(system: "ServeSystem", report: "LoadReport") -> dict[str, Any]:
    """Assemble the SLO summary for one completed load run."""
    spans = system.telemetry.spans
    latency: dict[str, dict[str, float]] = {}
    for phase in SLO_PHASES:
        stats = summarize([s.duration_ms for s in spans.spans(phase) if s.finished])
        latency[phase] = {"count": stats.n}
        if stats.n:
            latency[phase].update(
                mean=stats.mean,
                p50=stats.p50,
                p95=stats.p95,
                p99=stats.p99,
                max=stats.maximum,
            )
    completed = report.completed
    total_messages = sum(o.total_messages for o in report.outcomes)
    trust_messages = sum(o.trust_messages for o in report.outcomes)
    return {
        "transport": system.transport.name,
        "fleet": {
            "peers": system.network.n,
            "agents": len(system.agents),
            "seed": system.config.seed,
        },
        "transactions": {
            "offered": report.offered,
            "completed": completed,
            "lost": report.lost,
        },
        "latency_ms": latency,
        "throughput": {
            "tx_per_sec": report.tx_per_sec,
            "wall_ms": report.wall_ms,
            "concurrency": report.concurrency,
            "arrival_rate_tps": report.arrival_rate_tps,
        },
        "traffic": {
            "msgs_per_tx": (total_messages / completed) if completed else 0.0,
            "trust_msgs_per_tx": (trust_messages / completed) if completed else 0.0,
            "frames_posted": system.transport.frames_posted,
            "bytes_posted": system.transport.bytes_posted,
            "frames_rejected": system.network.frames_rejected,
        },
        "supervision": {
            "crashes_detected": system.supervisor.crashes_detected,
            "actor_restarts": system.supervisor.restarts,
        },
    }
