"""repro.obs — the unified telemetry plane.

One opt-in observer for a whole simulated deployment: hierarchical
spans keyed to simulation time, a deterministic metric registry, a
timeline of network/dispatch/fault events, and exporters (JSONL,
Chrome trace) feeding the ``hirep-obs`` CLI.  See
``docs/observability.md`` for the tour.

Attribute access is lazy (PEP 562): importing :mod:`repro.obs` — which
:mod:`repro.core.registry` does transitively via
:mod:`repro.obs.capture` — pulls in no numpy-heavy module until a
telemetry class is actually touched.  A name is exported here only if no
submodule shares it: ``repro.obs.capture`` is the *module* as soon as
anything imports it, so the ``capture()`` window is imported from there
(``from repro.obs.capture import capture``).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "Bundle",
    "Counter",
    "DEFAULT_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "PROFILE_SCHEMA",
    "Profiler",
    "Registry",
    "Span",
    "SpanRecorder",
    "TelemetryPlane",
    "WallClock",
    "attach_current",
    "bundle_key",
    "capture_active",
    "collapsed_lines",
    "current_plane",
    "load_bundle",
    "max_rss_kb",
    "read_jsonl",
    "store_bundle",
    "write_bundle",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_flamegraph",
    "write_metrics_json",
]

_HOME_OF = {
    "Bundle": "repro.obs.bundle",
    "bundle_key": "repro.obs.bundle",
    "load_bundle": "repro.obs.bundle",
    "store_bundle": "repro.obs.bundle",
    "write_bundle": "repro.obs.bundle",
    "Counter": "repro.obs.metrics",
    "DEFAULT_BUCKETS_MS": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "Registry": "repro.obs.metrics",
    "PROFILE_SCHEMA": "repro.obs.prof",
    "Profiler": "repro.obs.prof",
    "Span": "repro.obs.spans",
    "SpanRecorder": "repro.obs.spans",
    "TelemetryPlane": "repro.obs.plane",
    "WallClock": "repro.obs.clock",
    "attach_current": "repro.obs.capture",
    "capture_active": "repro.obs.capture",
    "collapsed_lines": "repro.obs.prof",
    "current_plane": "repro.obs.capture",
    "max_rss_kb": "repro.obs.prof",
    "read_jsonl": "repro.obs.export",
    "write_flamegraph": "repro.obs.prof",
    "write_chrome_trace": "repro.obs.export",
    "write_events_jsonl": "repro.obs.export",
    "write_metrics_json": "repro.obs.export",
}


def __getattr__(name: str) -> Any:
    module_name = _HOME_OF.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
