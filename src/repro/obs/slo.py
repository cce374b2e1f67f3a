"""The SLO report of a live load run, rendered one way everywhere.

``hirep-serve load`` prints it and stores the summary dict in its
telemetry bundle's ``meta.json`` under ``"slo"``; ``hirep-obs summarize``
renders it back from there with the same :func:`render_slo`, so the
bundle is the run's one artifact.  The dict is assembled by
:func:`repro.serve.report.slo_summary`.
"""

from __future__ import annotations

from typing import Any

__all__ = ["SLO_PHASES", "render_slo"]

#: Span names summarized per phase, in display order.
SLO_PHASES = ("transaction", "query", "report")


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
        f"{traffic['frames_rejected']} rejected)",
        f"supervision: {sup['crashes_detected']} crashes, "
        f"{sup['actor_restarts']} restarts",
        f"{'phase':<12} {'count':>6} {'mean':>8} {'p50':>8} {'p95':>8} "
        f"{'p99':>8} {'max':>8}  (ms)",
    ]
    for phase in SLO_PHASES:
        stats = summary["latency_ms"][phase]
        if not stats["count"]:
            lines.append(f"{phase:<12} {0:>6}")
            continue
        lines.append(
            f"{phase:<12} {stats['count']:>6} {stats['mean']:>8.2f} "
            f"{stats['p50']:>8.2f} {stats['p95']:>8.2f} {stats['p99']:>8.2f} "
            f"{stats['max']:>8.2f}"
        )
    return "\n".join(lines)
