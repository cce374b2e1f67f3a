"""SLO reporting: turn a load run's telemetry into the numbers that matter.

The summary dict is the `hirep-serve` contract: transaction counts
(offered/completed/lost), wall-clock latency percentiles (p50/p95/p99 +
mean) per phase — ``transaction`` end-to-end, ``query`` (start to
estimate), ``report`` (settlement + report delivery) — throughput, and
message cost (msgs/tx, frames, bytes).  Percentiles come from the raw
span durations, not histogram buckets, so they are exact for the run
(:func:`repro.sim.stats.summarize`, linear interpolation).

``write_slo`` persists it as deterministic JSON (sorted keys); the full
event/span/metric record travels separately as a standard
:mod:`repro.obs` bundle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.sim.stats import summarize

if TYPE_CHECKING:
    from repro.serve.load import LoadReport
    from repro.serve.system import ServeSystem

__all__ = ["slo_summary", "render_slo", "write_slo", "load_slo"]

#: Span names summarized per phase, in display order.
_PHASES = ("transaction", "query", "report")


def slo_summary(system: "ServeSystem", report: "LoadReport") -> dict[str, Any]:
    """Assemble the SLO summary for one completed load run."""
    spans = system.telemetry.spans
    latency: dict[str, dict[str, float]] = {}
    for phase in _PHASES:
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


def render_slo(summary: dict[str, Any]) -> str:
    """The summary as a small human-readable report."""
    tx = summary["transactions"]
    thr = summary["throughput"]
    traffic = summary["traffic"]
    sup = summary["supervision"]
    lines = [
        f"transport: {summary['transport']}  "
        f"fleet: {summary['fleet']['peers']} peers / "
        f"{summary['fleet']['agents']} agents  seed: {summary['fleet']['seed']}",
        f"transactions: {tx['completed']}/{tx['offered']} completed, "
        f"{tx['lost']} lost",
        f"throughput: {thr['tx_per_sec']:.1f} tx/s over {thr['wall_ms']:.0f} ms "
        f"(concurrency {thr['concurrency']})",
        f"traffic: {traffic['msgs_per_tx']:.1f} msgs/tx "
        f"({traffic['frames_posted']} frames, {traffic['bytes_posted']} bytes, "
        f"{traffic.get('frames_rejected', 0)} rejected)",
        f"supervision: {sup['crashes_detected']} crashes, "
        f"{sup['actor_restarts']} restarts",
        f"{'phase':<12} {'count':>6} {'mean':>8} {'p50':>8} {'p95':>8} "
        f"{'p99':>8} {'max':>8}  (ms)",
    ]
    for phase in _PHASES:
        stats = summary["latency_ms"].get(phase, {"count": 0})
        if not stats.get("count"):
            lines.append(f"{phase:<12} {0:>6}")
            continue
        lines.append(
            f"{phase:<12} {stats['count']:>6} {stats['mean']:>8.2f} "
            f"{stats['p50']:>8.2f} {stats['p95']:>8.2f} {stats['p99']:>8.2f} "
            f"{stats['max']:>8.2f}"
        )
    return "\n".join(lines)


def write_slo(summary: dict[str, Any], path: Path | str) -> Path:
    """Write the summary as deterministic JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return path


def load_slo(path: Path | str) -> dict[str, Any]:
    """Read a summary previously written by :func:`write_slo`."""
    return json.loads(Path(path).read_text())
