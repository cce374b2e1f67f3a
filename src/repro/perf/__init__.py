"""repro.perf — the performance record-keeping plane.

Where :mod:`repro.obs` observes a single run from the inside,
``repro.perf`` tracks performance *across* runs:

* :class:`PerfReport` — the one versioned schema every benchmark suite
  emits (``benchmarks/conftest.py`` is the adoption path);
* :class:`PerfHistory` — an append-only on-disk JSONL store, one line
  per recorded report, grouped into series by suite, backend, N,
  options and scale;
* :func:`gate` — regression detection against a rolling baseline, with
  direction-aware metric semantics (throughput up is good, memory and
  wall-time up are bad), over calibrated values.

A library only, below :mod:`repro.obs` in the layering: its command line
is ``hirep-obs`` (``record`` / ``trend`` / ``diff`` / ``gate``).

See the "Profiling & perf gating" section of ``docs/observability.md``.
"""

from __future__ import annotations

from repro.perf.gate import GateFinding, GateResult, gate
from repro.perf.history import PerfHistory
from repro.perf.report import (
    PERF_SCHEMA,
    PerfReport,
    current_git_sha,
    metric_direction,
)

__all__ = [
    "GateFinding",
    "GateResult",
    "PERF_SCHEMA",
    "PerfHistory",
    "PerfReport",
    "current_git_sha",
    "gate",
    "metric_direction",
]
