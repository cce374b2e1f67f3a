"""Perf-regression gating against a rolling baseline.

For every ``(suite, backend, network_size)`` series in a history, the
most recent report is the *candidate* and the rolling baseline for each
metric is the **median** of up to ``window`` prior records — the median,
not the mean, so one historical outlier (a noisy CI runner) cannot move
the bar.  Only direction-bearing metrics are gated
(:func:`~repro.perf.report.metric_direction`); a metric with no prior
observations simply establishes the series and passes.

``tolerance`` is the allowed fractional degradation.  With the default
``0.25``: a throughput metric regresses when it drops below
``baseline / 1.25`` and a memory/wall-time metric regresses when it
rises above ``baseline * 1.25``.  A 2× throughput collapse or a 2×
memory blow-up is flagged at any tolerance below 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.perf.history import PerfHistory
from repro.perf.report import PerfReport, metric_direction

__all__ = ["GateFinding", "GateResult", "gate", "rolling_median", "series_label"]


def series_label(suite: str, backend: str, network_size: int) -> str:
    """``suite/backend@N=n`` for one history series key."""
    where = suite + (f"/{backend}" if backend else "")
    return where + (f"@N={network_size}" if network_size else "")


def rolling_median(values: list[float]) -> float:
    """Median (lower-of-two on even counts, so it is always an observed value)."""
    if not values:
        raise ConfigError("median of no values")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


@dataclass
class GateFinding:
    """One metric of one series that degraded past tolerance."""

    suite: str
    backend: str
    network_size: int
    metric: str
    direction: str
    value: float
    baseline: float
    #: degradation factor, always >= 1 (2.0 means "2x worse")
    factor: float
    samples: int

    def render(self) -> str:
        arrow = "v" if self.direction == "higher" else "^"
        where = series_label(self.suite, self.backend, self.network_size)
        return (
            f"{where}: {self.metric} {arrow} {self.factor:.2f}x worse "
            f"({self.value:g} vs rolling baseline {self.baseline:g} "
            f"over {self.samples} run(s))"
        )


@dataclass
class GateResult:
    """Outcome of one gate pass over a history."""

    findings: list[GateFinding] = field(default_factory=list)
    checked: int = 0  # gated (metric, series) pairs with a baseline
    established: int = 0  # series/metrics seen for the first time
    window: int = 0
    tolerance: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"perf gate: {self.checked} metric(s) checked against a rolling "
            f"median of <= {self.window} prior run(s), tolerance "
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
    window: int = 5,
    tolerance: float = 0.25,
    suites: list[str] | None = None,
) -> GateResult:
    """Gate the newest report of every series against its rolling baseline."""
    if window < 1:
        raise ConfigError(f"gate window must be >= 1: {window}")
    if tolerance <= 0:
        raise ConfigError(f"gate tolerance must be positive: {tolerance}")
    result = GateResult(window=window, tolerance=tolerance)
    for (suite, backend, network_size), series in history.series().items():
        if suites is not None and suite not in suites:
            continue
        *prior, candidate = series
        for metric, value in sorted(candidate.metrics.items()):
            direction = metric_direction(metric)
            if direction is None:
                continue
            observed = [
                r.metrics[metric] for r in prior[-window:] if metric in r.metrics
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
                        suite=suite,
                        backend=backend,
                        network_size=network_size,
                        metric=metric,
                        direction=direction,
                        value=value,
                        baseline=baseline,
                        factor=factor,
                        samples=len(observed),
                    )
                )
    result.findings.sort(key=lambda f: (-f.factor, f.suite, f.metric))
    return result


def latest_by_key(reports: list[PerfReport]) -> dict[tuple, PerfReport]:
    """The newest report per (suite, backend, N) key, for diffing."""
    out: dict[tuple, PerfReport] = {}
    for report in reports:
        out[report.key()] = report
    return out
