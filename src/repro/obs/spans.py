"""Hierarchical spans keyed to *simulation* time.

A :class:`Span` is a named interval ``[start_ms, end_ms]`` on the
simulated clock with an optional parent — the telemetry plane uses them to
decompose one transaction into its protocol phases
(``transaction → query → report``) and individual message flights.
Span identifiers are sequential integers assigned at begin time, so a
fixed-seed run always produces the same ids in the same order; nothing
here reads the wall clock.

:class:`SpanRecorder` deliberately supports out-of-order finishing
(phase spans are emitted when their transaction finishes) — the
context-manager form is sugar for the common strictly-nested case.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ConfigError

__all__ = ["Span", "SpanRecorder"]


@dataclass
class Span:
    """One named interval of simulated time."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start_ms: float
    end_ms: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            return float("nan")
        return self.end_ms - self.start_ms

    def render(self) -> str:
        dur = f"{self.duration_ms:10.3f}ms" if self.finished else "      open"
        extra = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        return (
            f"[{self.start_ms:12.3f}ms] span {self.name:<18} {dur}"
            f" #{self.span_id}" + (f" {extra}" if extra else "")
        )


class SpanRecorder:
    """Append-only span store with deterministic sequential ids."""

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._next_id = 0

    def begin(
        self,
        name: str,
        *,
        start_ms: float,
        category: str = "span",
        parent: Span | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span at ``start_ms``; finish it with :meth:`finish`."""
        span = Span(
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            category=category,
            start_ms=start_ms,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._spans.append(span)
        return span

    def finish(self, span: Span, end_ms: float, **attrs: Any) -> Span:
        """Close ``span`` at ``end_ms`` (idempotence is a caller bug)."""
        if span.end_ms is not None:
            raise ConfigError(f"span #{span.span_id} ({span.name}) already finished")
        if end_ms < span.start_ms:
            raise ConfigError(
                f"span #{span.span_id} cannot end at {end_ms} before its "
                f"start {span.start_ms}"
            )
        span.end_ms = end_ms
        span.attrs.update(attrs)
        return span

    def emit(
        self,
        name: str,
        start_ms: float,
        end_ms: float,
        *,
        category: str = "span",
        parent: Span | None = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-complete interval in one call."""
        span = self.begin(
            name, start_ms=start_ms, category=category, parent=parent, **attrs
        )
        return self.finish(span, end_ms)

    @contextmanager
    def span(
        self,
        name: str,
        clock: Callable[[], float],
        *,
        category: str = "span",
        parent: Span | None = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Context manager for the strictly-nested case (``clock`` = sim now)."""
        span = self.begin(
            name, start_ms=clock(), category=category, parent=parent, **attrs
        )
        try:
            yield span
        finally:
            self.finish(span, clock())

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self, name: str | None = None) -> list[Span]:
        """Spans in id (begin) order, optionally filtered by name."""
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self._spans if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        return [s for s in self._spans if s.parent_id is None]
