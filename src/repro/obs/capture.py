"""Process-global telemetry capture context.

The orchestrator builds systems deep inside worker functions, far from
any code the caller controls — so "capture this run" can't be threaded
through as an argument without touching every experiment.  Instead,
:func:`capture` opens a process-global window: while it is active,
:meth:`repro.core.registry.SystemRegistry.build` calls
:func:`attach_current` on every system it constructs, and the plane
sees everything.

This module is deliberately tiny (stdlib-only imports; the plane itself
is imported lazily) because :mod:`repro.core.registry` imports it at
module load — the cost when telemetry is off must be one ``is None``
check per built system and nothing at import time.

Captures do not nest: the plane is process state, and two overlapping
captures would each see half the other's systems.  One capture per run
is the model — the worker wraps exactly one job execution.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.plane import TelemetryPlane

__all__ = ["attach_current", "capture", "capture_active", "current_plane"]

_active: "TelemetryPlane | None" = None


def capture_active() -> bool:
    """Is a capture window currently open?"""
    return _active is not None


def current_plane() -> "TelemetryPlane | None":
    """The active plane, or ``None`` outside a capture window."""
    return _active


def attach_current(system: Any) -> bool:
    """Attach ``system`` to the active plane, if any.

    The registry's build hook.  Returns whether an attachment happened;
    with no capture open this is a single global read.
    """
    if _active is None:
        return False
    _active.attach(system)
    return True


def _profile_from_env() -> str | bool:
    """The ``HIREP_PROFILE`` opt-in: unset/0 off, ``mem`` adds tracemalloc."""
    import os

    raw = os.environ.get("HIREP_PROFILE", "").strip().lower()
    if raw in ("", "0", "false", "off"):
        return False
    return "mem" if raw == "mem" else True


@contextmanager
def capture(
    *, profile: str | bool | None = None, **plane_kwargs: Any
) -> Iterator["TelemetryPlane"]:
    """Open a capture window; yields the :class:`TelemetryPlane`.

    Every system built through the registry inside the window is
    instrumented.  Keyword arguments go to the plane constructor
    (``capacity``, ``flight_spans``).

    ``profile`` opts the window into wall-clock profiling
    (:mod:`repro.obs.prof`): ``True`` starts a sampling profiler for the
    duration of the window, ``"mem"`` additionally turns on tracemalloc
    watermarks, and ``None`` (the default) defers to the
    ``HIREP_PROFILE`` environment variable — which is how orchestrator
    workers (:mod:`repro.exec.worker`) and anything else that opens
    captures deep inside library code get profiled without new
    parameters.  The profile is exported as ``profile.json`` when the
    plane is stored as a bundle.
    """
    global _active
    if _active is not None:
        raise ConfigError("telemetry capture is already active; captures do not nest")
    from repro.obs.plane import TelemetryPlane

    if profile is None:
        profile = _profile_from_env()
    plane = TelemetryPlane(**plane_kwargs)
    profiler = None
    if profile:
        from repro.obs.prof import Profiler

        profiler = plane.set_profiler(Profiler(memory=profile == "mem"))
        profiler.start()
    _active = plane
    try:
        yield plane
    finally:
        _active = None
        if profiler is not None:
            profiler.stop()
