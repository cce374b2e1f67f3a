"""Telemetry bundles: one directory per captured run, content-addressed.

A *bundle* is the on-disk form of a :class:`~repro.obs.plane.TelemetryPlane`:

* ``events.jsonl`` — timeline events and spans (see
  :mod:`repro.obs.export`);
* ``trace.json``   — the Chrome/Perfetto trace;
* ``metrics.json`` — the :meth:`~repro.obs.plane.TelemetryPlane.collect`
  snapshot;
* ``meta.json``    — caller-supplied context (job key, spec, label);
* ``profile.json`` — the wall-clock profile (:mod:`repro.obs.prof`),
  present only when the plane carried a profiler.

The bundle **key** is a SHA-256 over the three telemetry files only —
``meta.json`` and ``profile.json`` are excluded: annotations and
wall-clock profile data are honest about being nondeterministic, so
they never change a bundle's identity.  :func:`store_bundle`
fans bundles out under ``<root>/<key[:2]>/<key>/`` exactly like the
result cache, so a sweep's bundles live naturally next to its cached
results and identical telemetry is stored once.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TYPE_CHECKING

from repro.errors import ConfigError
from repro.obs.export import (
    read_jsonl,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_json,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.plane import TelemetryPlane

__all__ = ["Bundle", "bundle_key", "load_bundle", "store_bundle", "write_bundle"]

#: The files that define a bundle's identity, in hashing order.
_HASHED_FILES = ("events.jsonl", "metrics.json", "trace.json")


def write_bundle(
    plane: "TelemetryPlane",
    directory: str | Path,
    *,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Export ``plane`` into ``directory`` (created if needed).

    A joined profiler's wall-clock data goes to ``profile.json`` only, so
    the hashed telemetry files stay a pure function of the simulation
    whether or not a profiler rode along.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_events_jsonl(plane, directory / "events.jsonl")
    write_chrome_trace(plane, directory / "trace.json")
    write_metrics_json(plane.collect(), directory / "metrics.json")
    (directory / "meta.json").write_text(
        json.dumps(meta or {}, sort_keys=True, separators=(",", ":"))
    )
    profiler = getattr(plane, "profiler", None)
    if profiler is not None:
        from repro.obs.prof import PROFILE_FILENAME

        (directory / PROFILE_FILENAME).write_text(
            json.dumps(
                profiler.to_dict(), sort_keys=True, separators=(",", ":")
            )
        )
    return directory


def bundle_key(directory: str | Path) -> str:
    """SHA-256 identity of the bundle at ``directory``.

    Hashes the telemetry files only (never ``meta.json``), each prefixed
    by its name and length so file boundaries can't alias.
    """
    directory = Path(directory)
    digest = hashlib.sha256()
    for name in _HASHED_FILES:
        path = directory / name
        if not path.is_file():
            raise ConfigError(f"not a telemetry bundle (missing {name}): {directory}")
        data = path.read_bytes()
        digest.update(f"{name}:{len(data)}:".encode())
        digest.update(data)
    return digest.hexdigest()


def store_bundle(
    plane: "TelemetryPlane",
    root: str | Path,
    *,
    meta: dict[str, Any] | None = None,
) -> tuple[str, Path]:
    """Write ``plane`` content-addressed under ``root``; returns (key, path).

    Layout mirrors :class:`~repro.exec.cache.ResultCache`:
    ``<root>/<key[:2]>/<key>/``.  The bundle is staged in a scratch
    directory first (the key is only known after export), then renamed
    into place; if an identical bundle already exists the stage is
    discarded, so re-running a cached job costs no extra disk.
    """
    root = Path(root)
    stage = root / ".staging"
    stage.mkdir(parents=True, exist_ok=True)
    stage_dir = Path(tempfile.mkdtemp(dir=stage, prefix="bundle-"))
    write_bundle(plane, stage_dir, meta=meta)
    key = bundle_key(stage_dir)
    final = root / key[:2] / key
    if final.is_dir():
        for name in (
            "events.jsonl",
            "trace.json",
            "metrics.json",
            "meta.json",
            "profile.json",
        ):
            (stage_dir / name).unlink(missing_ok=True)
        stage_dir.rmdir()
    else:
        final.parent.mkdir(parents=True, exist_ok=True)
        stage_dir.rename(final)
    return key, final


@dataclass
class Bundle:
    """A loaded telemetry bundle (read side of :func:`write_bundle`)."""

    path: Path
    events: list[dict[str, Any]] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    profile: dict[str, Any] | None = None

    @property
    def key(self) -> str:
        return bundle_key(self.path)


def load_bundle(directory: str | Path) -> Bundle:
    """Read a bundle directory back into memory."""
    directory = Path(directory)
    rows = read_jsonl(directory / "events.jsonl")
    metrics = json.loads((directory / "metrics.json").read_text())
    meta_path = directory / "meta.json"
    meta = json.loads(meta_path.read_text()) if meta_path.is_file() else {}
    profile_path = directory / "profile.json"
    profile = (
        json.loads(profile_path.read_text()) if profile_path.is_file() else None
    )
    return Bundle(
        path=directory,
        events=[r for r in rows if r.get("kind") == "event"],
        spans=[r for r in rows if r.get("kind") == "span"],
        metrics=metrics,
        meta=meta,
        profile=profile,
    )
