"""Structured simulation tracing.

Debugging a discrete-event protocol means answering "what happened, in
order, to whom" — :class:`Tracer` records timestamped entries with a
category and free-form fields in a bounded buffer and renders a readable
timeline.  The telemetry plane (:meth:`repro.obs.plane.TelemetryPlane.attach`)
feeds one from a network's observer lists: every datagram and, when a
:class:`~repro.net.faults.FaultPlane` is installed, every injected drop
(``fault.drop``) and latency spike (``fault.delay``).

Nothing a bounded buffer loses is lost silently: entries pushed out of a
full buffer bump :attr:`Tracer.evicted`, and :meth:`Tracer.render` reports
the count.

Tracing is strictly opt-in and costs nothing when no tracer is attached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError

__all__ = ["TraceEntry", "Tracer"]


@dataclass(frozen=True)
class TraceEntry:
    """One timeline record."""

    time: float
    category: str
    fields: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def render(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in self.fields)
        return f"[{self.time:12.3f}ms] {self.category:<22} {parts}"


class Tracer:
    """Bounded trace buffer."""

    def __init__(self, *, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: deque[TraceEntry] = deque(maxlen=capacity)
        self.recorded = 0
        #: entries pushed out of the full buffer by newer ones.
        self.evicted = 0

    def record(self, time: float, category: str, /, **fields: Any) -> None:
        """Append one entry.

        ``time`` and ``category`` are positional-only so fields may reuse
        those names (e.g. a ``fault.drop`` event carrying the affected
        message's ``category``).
        """
        if len(self._entries) == self.capacity:
            self.evicted += 1
        self._entries.append(
            TraceEntry(time=time, category=category, fields=tuple(fields.items()))
        )
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self, category: str | None = None) -> list[TraceEntry]:
        if category is None:
            return list(self._entries)
        return [e for e in self._entries if e.category == category]

    def between(self, start: float, end: float) -> list[TraceEntry]:
        """Entries with start <= time < end."""
        return [e for e in self._entries if start <= e.time < end]

    def summary(self) -> str:
        """One-line accounting: held / recorded / evicted."""
        return f"{len(self._entries)} held, {self.recorded} recorded, {self.evicted} evicted"

    def render(self, limit: int = 50) -> str:
        """The most recent ``limit`` entries as a timeline.

        When capacity eviction has discarded entries, a trailing line says
        how many — a truncated timeline must never read as a complete one.
        """
        tail = list(self._entries)[-limit:]
        lines = [e.render() for e in tail]
        if self.evicted:
            lines.append(f"({self.summary()})")
        return "\n".join(lines)

    def clear(self) -> None:
        self._entries.clear()
