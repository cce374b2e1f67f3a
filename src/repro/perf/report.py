"""The versioned performance-report schema.

One :class:`PerfReport` records one measured benchmark cell: which suite
measured it, on which backend and network size, and a flat
``metric name -> value`` mapping.  The schema is deliberately small —
the shared ``benchmarks/conftest.py`` helper stamps the envelope
(schema version, scale, git sha) so individual suites only supply their
numbers, and every consumer (:class:`~repro.perf.history.PerfHistory`,
``hirep-obs``) reads exactly one shape.

Metric *direction* is a naming convention, not per-report metadata:
``*_per_sec`` and ``*speedup*`` metrics are better when higher;
``*_s`` / ``*_ms`` / ``*_kb`` / ``*_mb`` / ``*_bytes*`` metrics are
better when lower; anything else is informational and never gated.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigError

__all__ = ["PERF_SCHEMA", "PerfReport", "current_git_sha", "metric_direction"]

#: Bump when the on-disk report shape changes incompatibly.
PERF_SCHEMA = 1


def metric_direction(name: str) -> str | None:
    """``"higher"`` / ``"lower"`` is better, or ``None`` (ungated)."""
    if name.endswith(("_per_sec", "_per_s")) or "speedup" in name:
        return "higher"
    if name.endswith(("_s", "_ms", "_kb", "_mb", "_bytes")) or "_bytes_per_" in name:
        return "lower"
    return None


def current_git_sha(cwd: str | None = None) -> str | None:
    """The repo's HEAD sha, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclass
class PerfReport:
    """One measured benchmark cell.

    ``metrics`` values must be finite floats — a NaN throughput would
    silently poison every rolling median downstream, so it is rejected
    at construction.
    """

    suite: str
    metrics: dict[str, float]
    backend: str | None = None
    network_size: int | None = None
    transactions: int | None = None
    opts: dict[str, str] = field(default_factory=dict)
    scale: str | None = None
    git_sha: str | None = None
    schema: int = PERF_SCHEMA

    def __post_init__(self) -> None:
        import math

        if not self.suite:
            raise ConfigError("PerfReport needs a suite name")
        if not self.metrics:
            raise ConfigError(f"PerfReport {self.suite!r} has no metrics")
        clean: dict[str, float] = {}
        for name, value in self.metrics.items():
            value = float(value)
            if not math.isfinite(value):
                raise ConfigError(
                    f"metric {name!r} in suite {self.suite!r} is {value!r}; "
                    "perf metrics must be finite"
                )
            clean[name] = value
        self.metrics = clean
        self.opts = {str(k): str(v) for k, v in self.opts.items()}

    def key(self) -> tuple[str, str, int]:
        """The history grouping key: (suite, backend, network size)."""
        return (self.suite, self.backend or "", self.network_size or 0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "suite": self.suite,
            "backend": self.backend,
            "network_size": self.network_size,
            "transactions": self.transactions,
            "opts": dict(sorted(self.opts.items())),
            "scale": self.scale,
            "git_sha": self.git_sha,
            "metrics": dict(sorted(self.metrics.items())),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PerfReport":
        schema = data.get("schema")
        if schema != PERF_SCHEMA:
            raise ConfigError(
                f"unsupported PerfReport schema {schema!r} "
                f"(this build reads schema {PERF_SCHEMA})"
            )
        return cls(
            suite=data["suite"],
            metrics=dict(data["metrics"]),
            backend=data.get("backend"),
            network_size=data.get("network_size"),
            transactions=data.get("transactions"),
            opts=dict(data.get("opts", {})),
            scale=data.get("scale"),
            git_sha=data.get("git_sha"),
            schema=schema,
        )
