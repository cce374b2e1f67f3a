"""Deterministic telemetry exporters: JSONL events and Chrome traces.

Two formats cover the two consumption modes:

* ``events.jsonl`` — one JSON object per line (timeline events first,
  then spans), trivially greppable and diffable; what ``hirep-obs``
  reads back;
* ``trace.json`` — the Chrome trace-event format, loadable in
  ``chrome://tracing`` / Perfetto.  Simulated milliseconds map to trace
  microseconds (the format's native unit), so one sim-ms renders as one
  displayed ms.

Determinism contract (DET003 and beyond): every object is serialized
with sorted keys and fixed separators, floats pass through
:func:`_jsonable` (NaN/±inf → ``None`` — ``json`` would otherwise emit
tokens that are not valid JSON), and nothing here reads the wall clock.
Two runs at the same seed produce byte-identical files regardless of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.plane import TelemetryPlane

__all__ = [
    "event_rows",
    "span_rows",
    "write_events_jsonl",
    "read_jsonl",
    "write_chrome_trace",
    "write_metrics_json",
]


def _jsonable(value: Any) -> Any:
    """``value`` with non-finite floats replaced by ``None``.

    ``json.dumps`` happily emits ``NaN``/``Infinity`` which are *not*
    JSON; an open span's duration and an empty run's MSE are both NaN,
    so sanitizing here keeps every exported file standards-valid.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _dumps(obj: Any) -> str:
    return json.dumps(
        _jsonable(obj), sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def event_rows(plane: "TelemetryPlane") -> list[dict[str, Any]]:
    """Timeline entries as plain dicts (``kind="event"``).

    Entry fields are nested under ``"fields"`` so a field may share a
    name with the envelope keys (a ``fault.drop`` event carries the
    affected message's ``category`` as a field, for example).
    """
    rows: list[dict[str, Any]] = []
    for entry in plane.tracer.entries():
        rows.append(
            {
                "kind": "event",
                "t_ms": entry.time,
                "category": entry.category,
                "fields": dict(entry.fields),
            }
        )
    return rows


def span_rows(plane: "TelemetryPlane") -> list[dict[str, Any]]:
    """Spans as plain dicts (``kind="span"``), in begin order."""
    rows: list[dict[str, Any]] = []
    for span in plane.spans.spans():
        rows.append(
            {
                "kind": "span",
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "category": span.category,
                "start_ms": span.start_ms,
                "end_ms": span.end_ms,
                "attrs": dict(span.attrs),
            }
        )
    return rows


def write_events_jsonl(plane: "TelemetryPlane", path: str | Path) -> Path:
    """Write the full timeline (events then spans) as JSONL."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for row in event_rows(plane):
            fh.write(_dumps(row) + "\n")
        for row in span_rows(plane):
            fh.write(_dumps(row) + "\n")
    return path


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL file back into a list of dicts (blank lines skipped)."""
    rows: list[dict[str, Any]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            rows.append(json.loads(line))
    return rows


# -- Chrome trace-event format ----------------------------------------------

#: Track (tid) layout inside the single trace "process".
_TID_TXN = 0  # transactions and derived phases
_TID_MSG = 1  # per-message flight spans
_TID_EVENT = 2  # instant events (sends, faults, dispatches)

_TRACK_NAMES = {
    _TID_TXN: "transactions",
    _TID_MSG: "messages",
    _TID_EVENT: "events",
}


def chrome_trace_obj(plane: "TelemetryPlane") -> dict[str, Any]:
    """The trace as a Chrome trace-event object (not yet serialized).

    Spans become ``"X"`` complete events, timeline entries become
    ``"i"`` instants; sim milliseconds are exported as microseconds
    (``ts``/``dur``), the format's native unit.
    """
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": name},
        }
        for tid, name in sorted(_TRACK_NAMES.items())
    ]
    for span in plane.spans.spans():
        end_ms = span.end_ms if span.end_ms is not None else span.start_ms
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": _TID_MSG if span.category == "msg" else _TID_TXN,
                "name": span.name,
                "cat": span.category,
                "ts": span.start_ms * 1000.0,
                "dur": (end_ms - span.start_ms) * 1000.0,
                "args": dict(span.attrs, span_id=span.span_id),
            }
        )
    for entry in plane.tracer.entries():
        events.append(
            {
                "ph": "i",
                "pid": 0,
                "tid": _TID_EVENT,
                "name": entry.category,
                "s": "t",  # thread-scoped instant
                "ts": entry.time * 1000.0,
                "args": dict(entry.fields),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(plane: "TelemetryPlane", path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_dumps(chrome_trace_obj(plane)))
    return path


def write_metrics_json(metrics: Mapping[str, float], path: str | Path) -> Path:
    """Write a metric snapshot (``TelemetryPlane.collect`` output) as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_dumps(dict(metrics)))
    return path
