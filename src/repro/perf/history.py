"""Append-only on-disk store of performance reports.

Layout: one ``<suite>.jsonl`` file per suite under the history root,
one JSON line per recorded :class:`~repro.perf.report.PerfReport`, in
recording order — which *is* the chronology the rolling-baseline gate
walks, so no wall-clock timestamp is required (callers may stamp one
into ``opts`` if they care).  Lines are written with sorted keys and
fixed separators, so identical measurements append identical bytes and
the whole store diffs cleanly in git — which is how the committed CI
baseline is maintained.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.errors import ConfigError
from repro.perf.report import PerfReport

__all__ = ["PerfHistory"]

_SUITE_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _suite_filename(suite: str) -> str:
    safe = _SUITE_SAFE.sub("-", suite).strip("-.")
    if not safe:
        raise ConfigError(f"suite name {suite!r} yields an empty filename")
    return f"{safe}.jsonl"


class PerfHistory:
    """The append-only report store rooted at ``root``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- writing -----------------------------------------------------------

    def record(self, report: PerfReport) -> Path:
        """Append ``report`` to its suite's file; returns the file path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / _suite_filename(report.suite)
        line = json.dumps(
            report.to_dict(), sort_keys=True, separators=(",", ":")
        )
        with path.open("a") as fh:
            fh.write(line + "\n")
        return path

    # -- reading -----------------------------------------------------------

    def suites(self) -> list[str]:
        """Suite names with at least one record, sorted."""
        if not self.root.is_dir():
            return []
        names = []
        for path in sorted(self.root.glob("*.jsonl")):
            first = self._read_file(path)
            if first:
                names.append(first[0].suite)
        return sorted(set(names))

    def records(
        self,
        suite: str | None = None,
        *,
        backend: str | None = None,
        network_size: int | None = None,
    ) -> list[PerfReport]:
        """Reports in recording order, optionally filtered."""
        if not self.root.is_dir():
            return []
        if suite is not None:
            paths = [self.root / _suite_filename(suite)]
        else:
            paths = sorted(self.root.glob("*.jsonl"))
        out: list[PerfReport] = []
        for path in paths:
            for report in self._read_file(path):
                if suite is not None and report.suite != suite:
                    continue
                if backend is not None and report.backend != backend:
                    continue
                if (
                    network_size is not None
                    and report.network_size != network_size
                ):
                    continue
                out.append(report)
        return out

    def series(self) -> dict[tuple[str, str, int], list[PerfReport]]:
        """Reports grouped by key, each group in recording order."""
        grouped: dict[tuple[str, str, int], list[PerfReport]] = {}
        for report in self.records():
            grouped.setdefault(report.key(), []).append(report)
        return dict(sorted(grouped.items()))

    @staticmethod
    def _read_file(path: Path) -> list[PerfReport]:
        if not path.is_file():
            return []
        reports: list[PerfReport] = []
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                reports.append(PerfReport.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ConfigError(
                    f"corrupt perf history line {path}:{lineno}: {exc}"
                ) from exc
        return reports
