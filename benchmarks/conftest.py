"""Benchmark harness configuration.

Each benchmark regenerates one paper table/figure (via the corresponding
``repro.experiments`` module), records the headline numbers in
``benchmark.extra_info`` and prints the rendered figure, so

    pytest benchmarks/ --benchmark-only -s

reproduces the whole evaluation section in one command.  Scales default to
CI-size; set ``HIREP_BENCH_SCALE=paper`` for the paper's 1000-peer runs.

Every suite also reports its headline numbers through the session-scoped
``perf`` fixture (:class:`PerfSink`), which stamps the
:class:`repro.perf.PerfReport` envelope (schema version, scale) uniformly
and writes one machine-readable artifact per run:

* ``BENCH_perf.json`` (``HIREP_BENCH_PERF_OUT``) — every report of the
  session, the file ``hirep-obs record`` ingests;
* when ``HIREP_PERF_HISTORY`` names a directory, the reports are also
  appended straight into that history so ``hirep-obs gate`` can check
  them against the rolling baseline.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from repro.perf.history import PerfHistory
from repro.perf.report import PERF_SCHEMA, PerfReport, current_git_sha

PAPER = os.environ.get("HIREP_BENCH_SCALE", "small") == "paper"

#: Where the kernel-throughput records land (overridable for CI artifacts).
KERNEL_BENCH_OUT = os.environ.get("HIREP_BENCH_KERNEL_OUT", "BENCH_kernel.json")

#: Where the session's PerfReport envelope lands.
PERF_BENCH_OUT = os.environ.get("HIREP_BENCH_PERF_OUT", "BENCH_perf.json")

#: Optional append-only history root; CI sets this to feed ``hirep-obs gate``.
PERF_HISTORY = os.environ.get("HIREP_PERF_HISTORY")


@pytest.fixture(scope="session")
def scale() -> dict:
    """Per-experiment size knobs for the active scale."""
    if PAPER:
        return {
            "fig5": dict(network_size=1000, transactions=300),
            "fig6": dict(network_size=1000, transactions=400),
            "fig7": dict(network_size=1000, train_transactions=200, measure_transactions=100),
            "fig8": dict(network_size=1000, transactions=200),
            "traffic_bound": dict(network_size=300, transactions=40),
            "robustness": dict(network_size=250),
            "ablations": dict(network_size=250),
            # object_floor: the object kernel at N=1000, 11x under the median
            # of the committed baseline's three samples at 512811d (602 / 593
            # / 593 tx/s) — the array floors' slack; before it an object-
            # kernel regression showed only as a rise in the speed-up.  The
            # three sessions at 7f6f936 (a relay hop without helper calls;
            # one host) read 563 / 785 / 471 tx/s: 11x under their median is
            # 51, under 54, so the floor stays.  It is never lowered to
            # follow a slower host
            # array_transactions: an array cell timed over 100 transactions
            # (~15 ms at N=10k) swung by a third between sessions on one
            # host (5 283 / 7 303 / 6 827 tx/s at 7f6f936), enough to move
            # the speed-up ratio across the CI's 8x floor; 1 000 of them
            # take ~0.15 s.  The object cells stay at 100
            "kernel": dict(
                sizes=(1000, 10_000), transactions=100, array_transactions=1000,
                object_floor_tx_per_sec=54.0,
            ),
            # floor: 11x under the median of the three 100k samples at
            # 4d6e346 (4 545 / 4 381 / 2 894 tx/s; 50-transaction runs swing
            # that much) and 7x under the lowest — CI-runner slack, as 300
            # was 12x under the 3 700 it last guarded; the three at 512811d
            # (5 579 / 5 433 / 5 191) sit 13x over it
            "kernel_smoke": dict(network_size=100_000, transactions=50, floor_tx_per_sec=400.0),
            # floor: 11x under the lowest of the three churn samples at
            # 0f5adf2 (2 748 / 2 908 / 2 898 tx/s, one 2 000-transaction
            # round each, first departure included) — the slack the 100k
            # floor above carries under its median; the three at 512811d
            # (2 932 / 3 423 / 3 230) sit 12x over it
            "kernel_churn": dict(
                network_size=20_000, transactions=2000, churn=(0.01, 0.2),
                floor_tx_per_sec=250.0,
            ),
        }
    return {
        "fig5": dict(network_size=600, transactions=40),
        "fig6": dict(network_size=250, transactions=120),
        "fig7": dict(
            network_size=200,
            train_transactions=60,
            measure_transactions=30,
            ratios=(0.0, 0.3, 0.6, 0.9),
        ),
        "fig8": dict(network_size=250, transactions=40),
        "traffic_bound": dict(network_size=150, transactions=10),
        "robustness": dict(network_size=150),
        "ablations": dict(network_size=150),
        "kernel": dict(
            sizes=(1000,), transactions=60, array_transactions=1000, object_floor_tx_per_sec=54.0
        ),
        "kernel_smoke": dict(network_size=20_000, transactions=30, floor_tx_per_sec=100.0),
        "kernel_churn": dict(
            network_size=20_000, transactions=200, churn=(0.01, 0.2), floor_tx_per_sec=100.0
        ),
    }


class PerfSink:
    """The one shared emit path for benchmark numbers.

    Suites call :meth:`record` with just their metric mapping; the sink
    stamps the envelope (schema version, scale name) so every report in
    the session has an identical shape.  Non-finite values are dropped
    rather than raised — a degenerate cell (zero-duration timing window)
    should cost one metric, not the whole benchmark session.
    """

    def __init__(self, scale_name: str) -> None:
        self.scale_name = scale_name
        self.reports: list[PerfReport] = []

    def record(
        self,
        suite: str,
        metrics: dict[str, float],
        *,
        backend: str | None = None,
        network_size: int | None = None,
        transactions: int | None = None,
        **opts: object,
    ) -> PerfReport | None:
        finite: dict[str, float] = {}
        for name, value in metrics.items():
            try:
                number = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                continue  # non-numeric scalar (e.g. a label) — not a metric
            if math.isfinite(number):
                finite[name] = number
        if not finite:
            return None
        report = PerfReport(
            suite=suite,
            metrics=finite,
            backend=backend,
            network_size=network_size,
            transactions=transactions,
            opts={k: str(v) for k, v in opts.items()},
            scale=self.scale_name,
        )
        self.reports.append(report)
        return report


@pytest.fixture(scope="session")
def perf():
    """Session perf sink; flushed to disk (and history) at exit."""
    sink = PerfSink("paper" if PAPER else "small")
    yield sink
    if not sink.reports:
        return
    payload = {
        "schema": PERF_SCHEMA,
        "scale": sink.scale_name,
        "reports": [report.to_dict() for report in sink.reports],
    }
    Path(PERF_BENCH_OUT).write_text(json.dumps(payload, indent=2) + "\n")
    if PERF_HISTORY:
        sha = current_git_sha()
        history = PerfHistory(PERF_HISTORY)
        for report in sink.reports:
            if report.git_sha is None:
                report.git_sha = sha
            history.record(report)


@pytest.fixture(scope="session")
def kernel_records(perf):
    """Collects per-(backend, N) throughput rows; written as JSON at exit.

    ``benchmarks/test_bench_kernel.py`` appends one dict per measured cell
    (backend, network_size, tx/sec, msgs/sec, ...).  At session end the
    rows — plus array-over-object speedups (both ``tx_per_sec`` and
    ``msgs_per_sec``) for every network size both backends covered — are
    written to :data:`KERNEL_BENCH_OUT` so CI can upload a
    machine-readable artifact alongside pytest-benchmark's own output.
    Each row is also recorded through the :class:`PerfSink` (suite
    ``kernel``; the speedups as suite ``kernel-speedup``) so the kernel
    numbers land in the gated perf history too.
    """
    records: list[dict] = []
    yield records
    if not records:
        return
    _METRIC_KEYS = (
        "build_s",
        "bootstrap_s",
        "run_s",
        "tx_per_sec",
        "msgs_per_sec",
        "state_bytes_per_peer",
    )
    for row in records:
        perf.record(
            "kernel",
            {k: row[k] for k in _METRIC_KEYS if k in row},
            backend=row["backend"],
            network_size=row["network_size"],
            transactions=row.get("transactions"),
            **row.get("opts", {}),
        )
    by_size: dict[int, dict[str, dict]] = {}
    for row in records:
        by_size.setdefault(row["network_size"], {})[row["backend"]] = row
    speedups: dict[str, dict[str, float]] = {
        "tx_per_sec": {},
        "msgs_per_sec": {},
    }
    for size, backends in sorted(by_size.items()):
        if "hirep" not in backends or "hirep-array" not in backends:
            continue
        for metric in speedups:
            base = backends["hirep"].get(metric)
            fast = backends["hirep-array"].get(metric)
            if base and fast and math.isfinite(base) and math.isfinite(fast):
                speedups[metric][str(size)] = fast / base
        cell = {
            f"speedup_{metric}": values[str(size)]
            for metric, values in speedups.items()
            if str(size) in values
        }
        if cell:
            perf.record("kernel-speedup", cell, network_size=size)
    payload = {
        "scale": "paper" if PAPER else "small",
        "results": records,
        "speedup_tx_per_sec": speedups["tx_per_sec"],
        "speedup_msgs_per_sec": speedups["msgs_per_sec"],
    }
    Path(KERNEL_BENCH_OUT).write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer."""

    def runner(fn, **kwargs):
        return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)

    return runner
