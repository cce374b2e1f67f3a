"""Perf-regression gating of one session against a committed baseline.

A *session* is the reports one benchmark run wrote (``BENCH_perf.json``);
the *baseline* is a :class:`~repro.perf.history.PerfHistory`.  Each
session report is checked against its series in the baseline (one per
:meth:`PerfReport.key`: suite, backend, N, options and scale): the bar
for each metric is the **median** of the series' last :data:`WINDOW`
rows — the median, not the mean, so one outlier row cannot move it.
Only direction-bearing metrics are gated
(:func:`~repro.perf.report.metric_direction`).  A series only the
session has establishes itself and passes; a baseline series of a gated
suite that the session did not record is a finding, so a bench that
stops recording cannot leave its rows ungated.

:data:`TOLERANCE` is the allowed fractional degradation: a throughput
metric regresses when it drops below ``baseline / (1 + tolerance)`` and
a memory/wall-time metric when it rises above
``baseline * (1 + tolerance)``.  The benches record calibrated values
(:mod:`repro.perf.report`), so one tolerance serves every suite of a
baseline recorded on one host; it is set from the spread of seventeen
unmodified sessions on one host and still flags a 1.5x slowdown
(EXPERIMENTS.md "One calibrated speed gate").  A session on another
host passes its own, looser ``tolerance``.
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

#: Baseline rows in a metric's rolling median.
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
    """Outcome of gating one session against a baseline."""

    findings: list[GateFinding] = field(default_factory=list)
    #: :func:`series_label` of each baseline series of a gated suite
    #: that the session did not record
    missing: list[str] = field(default_factory=list)
    checked: int = 0  # gated (metric, series) pairs with a baseline
    established: int = 0  # series/metrics seen for the first time
    tolerance: float = TOLERANCE

    @property
    def ok(self) -> bool:
        return not self.findings and not self.missing

    def render(self) -> str:
        lines = [
            f"perf gate: {self.checked} metric(s) checked against a rolling "
            f"median of <= {WINDOW} baseline run(s), tolerance "
            f"{self.tolerance:.0%}, {self.established} newly established"
        ]
        if self.missing:
            lines.append(f"MISSING FROM SESSION ({len(self.missing)}):")
            lines += [f"  {label}" for label in self.missing]
        if self.findings:
            lines.append(f"REGRESSIONS ({len(self.findings)}):")
            lines += [f"  {f.render()}" for f in self.findings]
        elif not self.missing:
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
    session: list[PerfReport],
    baseline: PerfHistory,
    *,
    tolerance: float = TOLERANCE,
    suites: list[str] | None = None,
) -> GateResult:
    """Gate each session report against the rolling median of its series
    in ``baseline``.  The gated suites are ``suites``, or every suite the
    session recorded."""
    if tolerance <= 0:
        raise ConfigError(f"gate tolerance must be positive: {tolerance}")
    candidates: dict[tuple, PerfReport] = {}
    for report in session:
        if report.key() in candidates:
            raise ConfigError(f"two session reports for {series_label(*report.key())}")
        candidates[report.key()] = report
    gated = set(suites) if suites is not None else {key[0] for key in candidates}
    history = {key: rows for key, rows in baseline.series().items() if key[0] in gated}
    result = GateResult(tolerance=tolerance)
    result.missing = [series_label(*key) for key in history if key not in candidates]
    for key, candidate in sorted(candidates.items()):
        if key[0] not in gated:
            continue
        prior = history.get(key, [])[-WINDOW:]
        for metric, value in sorted(candidate.metrics.items()):
            direction = metric_direction(metric)
            if direction is None:
                continue
            observed = [r.metrics[metric] for r in prior if metric in r.metrics]
            if not observed:
                result.established += 1
                continue
            result.checked += 1
            baseline_value = rolling_median(observed)
            factor = _degradation(direction, value, baseline_value)
            if factor > 1.0 + tolerance:
                result.findings.append(
                    GateFinding(
                        series=series_label(*key),
                        metric=metric,
                        direction=direction,
                        value=value,
                        baseline=baseline_value,
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
