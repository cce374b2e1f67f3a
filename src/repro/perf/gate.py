"""Perf-regression gating against a rolling baseline.

For every series in a history (one per :meth:`PerfReport.key`: suite,
backend, N, options and scale), the most recent report is the
*candidate* and the rolling baseline for each metric is the **median**
of up to :data:`WINDOW` prior records — the median, not the mean, so one
historical outlier cannot move the bar.  Only direction-bearing metrics
are gated (:func:`~repro.perf.report.metric_direction`); a metric with no
prior observations simply establishes the series and passes.

:data:`TOLERANCE` is the allowed fractional degradation: a throughput
metric regresses when it drops below ``baseline / (1 + tolerance)`` and
a memory/wall-time metric when it rises above
``baseline * (1 + tolerance)``.  The benches record calibrated values
(:mod:`repro.perf.report`), so one tolerance serves every suite of a
history recorded on one host; it is set from the spread of seventeen
unmodified sessions on one host and still flags a 1.5x slowdown
(EXPERIMENTS.md "One calibrated speed gate").  A history whose baseline
came from another host passes its own, looser ``tolerance``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.perf.history import PerfHistory
from repro.perf.report import PerfReport, metric_direction

__all__ = [
    "TOLERANCE",
    "WINDOW",
    "GateFinding",
    "GateResult",
    "gate",
    "rolling_median",
    "series_label",
]

#: Prior records in a metric's rolling median.
WINDOW = 5

#: Allowed fractional degradation of a calibrated metric on one host:
#: the smallest 0.05 step over the worst factor (1.39x, a baseline row
#: against the other four) of seventeen unmodified sessions and the
#: baseline's own; a mutant that adds half as much work again reads
#: 1.43-1.61x on its most sensitive row.
TOLERANCE = 0.40


def series_label(
    suite: str,
    backend: str,
    network_size: int,
    opts: tuple[tuple[str, str], ...],
    scale: str,
) -> str:
    """``suite/backend N=n k=v … (scale)`` for one history series key."""
    label = suite + (f"/{backend}" if backend else "")
    label += f" N={network_size}" if network_size else ""
    label += "".join(f" {k}={v}" for k, v in opts)
    return label + (f" ({scale})" if scale else "")


def rolling_median(values: list[float]) -> float:
    """Median (lower-of-two on even counts, so it is always an observed value)."""
    if not values:
        raise ConfigError("median of no values")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


@dataclass
class GateFinding:
    """One metric of one series that degraded past tolerance."""

    series: str  # :func:`series_label` of the series
    metric: str
    direction: str
    value: float
    baseline: float
    #: degradation factor, always >= 1 (2.0 means "2x worse")
    factor: float
    samples: int

    def render(self) -> str:
        arrow = "v" if self.direction == "higher" else "^"
        return (
            f"{self.series}: {self.metric} {arrow} {self.factor:.2f}x worse "
            f"({self.value:g} vs rolling baseline {self.baseline:g} "
            f"over {self.samples} run(s))"
        )


@dataclass
class GateResult:
    """Outcome of one gate pass over a history."""

    findings: list[GateFinding] = field(default_factory=list)
    checked: int = 0  # gated (metric, series) pairs with a baseline
    established: int = 0  # series/metrics seen for the first time
    tolerance: float = TOLERANCE

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"perf gate: {self.checked} metric(s) checked against a rolling "
            f"median of <= {WINDOW} prior run(s), tolerance "
            f"{self.tolerance:.0%}, {self.established} newly established"
        ]
        if self.findings:
            lines.append(f"REGRESSIONS ({len(self.findings)}):")
            lines += [f"  {f.render()}" for f in self.findings]
        else:
            lines.append("no regressions")
        return "\n".join(lines)


def _degradation(direction: str, value: float, baseline: float) -> float:
    """How many times worse ``value`` is than ``baseline`` (>= 1 = worse)."""
    if baseline <= 0 or value <= 0:
        # zero/negative perf numbers are measurement artifacts; treat a
        # vanished throughput as infinitely worse, anything else as flat.
        if direction == "higher" and value <= 0 < baseline:
            return float("inf")
        return 1.0
    return baseline / value if direction == "higher" else value / baseline


def gate(
    history: PerfHistory,
    *,
    tolerance: float = TOLERANCE,
    suites: list[str] | None = None,
) -> GateResult:
    """Gate the newest report of every series against its rolling baseline."""
    if tolerance <= 0:
        raise ConfigError(f"gate tolerance must be positive: {tolerance}")
    result = GateResult(tolerance=tolerance)
    for key, series in history.series().items():
        if suites is not None and key[0] not in suites:
            continue
        *prior, candidate = series
        for metric, value in sorted(candidate.metrics.items()):
            direction = metric_direction(metric)
            if direction is None:
                continue
            observed = [
                r.metrics[metric] for r in prior[-WINDOW:] if metric in r.metrics
            ]
            if not observed:
                result.established += 1
                continue
            result.checked += 1
            baseline = rolling_median(observed)
            factor = _degradation(direction, value, baseline)
            if factor > 1.0 + tolerance:
                result.findings.append(
                    GateFinding(
                        series=series_label(*key),
                        metric=metric,
                        direction=direction,
                        value=value,
                        baseline=baseline,
                        factor=factor,
                        samples=len(observed),
                    )
                )
    result.findings.sort(key=lambda f: (-f.factor, f.series, f.metric))
    return result


def latest_by_key(reports: list[PerfReport]) -> dict[tuple, PerfReport]:
    """The newest report per series key, for diffing."""
    out: dict[tuple, PerfReport] = {}
    for report in reports:
        out[report.key()] = report
    return out
