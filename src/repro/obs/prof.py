"""Low-overhead performance profiler: sampled stacks, memory watermarks.

The telemetry plane (:mod:`repro.obs.plane`) answers *what the protocol
did* — spans and metrics keyed to simulated time.  This module answers
*where the wall-clock went*: a background thread samples the observed
thread's Python stack at a fixed interval (``sys._current_frames`` —
no tracing hooks, so the observed code runs unmodified), and optional
memory instrumentation records ``tracemalloc`` high-water marks plus
RSS and GC-collection gauges.

Attachment is the same from-the-outside story as the rest of the plane:
``capture(profile=True)`` starts a :class:`Profiler` for the whole
window, :meth:`TelemetryPlane.set_profiler` joins it to the span tree
(the profiler records each transaction span's wall milliseconds in
``span_wall``, keyed by span id, and samples are attributed to the
protocol context active when they were taken), and
:func:`repro.obs.bundle.write_bundle` persists ``profile.json`` next to
the deterministic telemetry files.  Profile data is wall-clock and
therefore *never* part of a bundle's content-address — it rides along
like ``meta.json``.

Everything wall-timed here goes through :class:`~repro.obs.clock.WallClock`
(this module and ``repro.obs.clock`` are the two sanctioned homes for
host-clock access — lint rule OBS002 ratchets every other site).
"""

from __future__ import annotations

import gc
import resource
import sys
import threading
from contextlib import contextmanager
from types import CodeType
from typing import Any, Iterator, Mapping

from repro.errors import ConfigError
from repro.obs.clock import WallClock

__all__ = [
    "PROFILE_FILENAME",
    "PROFILE_SCHEMA",
    "Profiler",
    "collapsed_lines",
    "max_rss_kb",
    "profile_chrome_trace_obj",
    "write_flamegraph",
]

#: Schema version stamped into every exported ``profile.json``.
PROFILE_SCHEMA = 1

#: File name a profile is exported under inside a telemetry bundle.
PROFILE_FILENAME = "profile.json"

#: Default sampling period.  5ms keeps the sampler under ~1% of one core
#: while still resolving protocol phases that run for tens of ms.
DEFAULT_INTERVAL_MS = 5.0


def max_rss_kb() -> int:
    """Peak resident set size of this process so far, in kilobytes."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    return int(rss // 1024) if sys.platform == "darwin" else int(rss)


def _frame_label(code: CodeType) -> str:
    """``path/in/repo.py:qualname`` — short, stable across machines."""
    filename = code.co_filename
    marker = filename.rfind("/repro/")
    if marker != -1:
        short = filename[marker + 1 :]
    else:
        short = "/".join(filename.rsplit("/", 2)[-2:])
    qualname = getattr(code, "co_qualname", code.co_name)
    return f"{short}:{qualname}"


class _Sampler(threading.Thread):
    """Daemon thread: snapshot the target thread's stack every interval."""

    def __init__(self, profiler: "Profiler", target_ident: int) -> None:
        super().__init__(name="hirep-prof-sampler", daemon=True)
        self.profiler = profiler
        self.target_ident = target_ident
        self.stop_event = threading.Event()

    def run(self) -> None:
        prof = self.profiler
        interval_s = prof.interval_ms / 1000.0
        labels = prof._label_cache
        while not self.stop_event.wait(interval_s):
            frame = sys._current_frames().get(self.target_ident)
            if frame is None:
                continue  # target thread has exited
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < prof.max_depth:
                code = frame.f_code
                label = labels.get(code)
                if label is None:
                    label = labels[code] = _frame_label(code)
                stack.append(label)
                frame = frame.f_back
                depth += 1
            key = (prof._context_label, tuple(reversed(stack)))
            prof._samples[key] = prof._samples.get(key, 0) + 1
            prof.sample_count += 1
            if len(prof._timeline) < prof.timeline_limit:
                prof._timeline.append((prof.clock.now, key))
            else:
                prof.timeline_dropped += 1


class Profiler:
    """Sampling profiler + memory watermarks for one observed thread.

    Parameters
    ----------
    interval_ms:
        Sampling period for the stack sampler.
    memory:
        Also run ``tracemalloc`` between :meth:`start` and :meth:`stop`
        to record the traced-allocation high-water mark.  Off by default:
        tracemalloc taxes every allocation, while pure stack sampling
        stays in the noise.
    max_depth:
        Stack frames retained per sample (deepest-first walk).
    timeline_limit:
        Individual timestamped samples kept for the Chrome-trace export;
        aggregation (counts, self-times) is never capped.
    """

    def __init__(
        self,
        *,
        interval_ms: float = DEFAULT_INTERVAL_MS,
        memory: bool = False,
        max_depth: int = 64,
        timeline_limit: int = 100_000,
        clock: WallClock | None = None,
    ) -> None:
        if interval_ms <= 0:
            raise ConfigError(f"profiler interval must be positive: {interval_ms}")
        self.interval_ms = float(interval_ms)
        self.memory = memory
        self.max_depth = max_depth
        self.timeline_limit = timeline_limit
        self.clock = clock if clock is not None else WallClock()
        #: (context, stack root->leaf) -> sample count
        self._samples: dict[tuple[str, tuple[str, ...]], int] = {}
        self._timeline: list[tuple[float, tuple[str, tuple[str, ...]]]] = []
        self._label_cache: dict[CodeType, str] = {}
        self._context_label = ""
        self._sampler: _Sampler | None = None
        self._wall_t0 = 0.0
        self._gc_at_start: list[int] = []
        self._owns_tracemalloc = False
        self.sample_count = 0
        self.timeline_dropped = 0
        self.wall_ms = 0.0
        self.rss_peak_kb = 0
        self.gc_collections: dict[str, int] = {}
        self.tracemalloc_peak_kb: float | None = None
        #: (span_id, span_name, wall_ms) — the join against the sim-time
        #: span tree, recorded by the plane's transaction wrapper.
        self.span_wall: list[tuple[int, str, float]] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._sampler is not None

    def start(self) -> "Profiler":
        """Begin sampling the *calling* thread; returns self for chaining."""
        if self._sampler is not None:
            raise ConfigError("profiler is already running")
        self._gc_at_start = [s["collections"] for s in gc.get_stats()]
        if self.memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._owns_tracemalloc = True
        self._wall_t0 = self.clock.now
        self._sampler = _Sampler(self, threading.get_ident())
        self._sampler.start()
        return self

    def stop(self) -> None:
        """Stop sampling and fold the memory watermarks (idempotent)."""
        sampler = self._sampler
        if sampler is None:
            return
        sampler.stop_event.set()
        sampler.join()
        self._sampler = None
        self.wall_ms += self.clock.now - self._wall_t0
        self.rss_peak_kb = max_rss_kb()
        for gen, (now, then) in enumerate(
            zip([s["collections"] for s in gc.get_stats()], self._gc_at_start)
        ):
            self.gc_collections[f"gen{gen}"] = (
                self.gc_collections.get(f"gen{gen}", 0) + now - then
            )
        if self.memory:
            import tracemalloc

            if tracemalloc.is_tracing():
                _, peak = tracemalloc.get_traced_memory()
                peak_kb = peak / 1024.0
                best = self.tracemalloc_peak_kb
                self.tracemalloc_peak_kb = (
                    peak_kb if best is None else max(best, peak_kb)
                )
                if self._owns_tracemalloc:
                    tracemalloc.stop()
                    self._owns_tracemalloc = False

    @contextmanager
    def profile(self) -> Iterator["Profiler"]:
        """``with prof.profile(): ...`` — start/stop around a block."""
        self.start()
        try:
            yield self
        finally:
            self.stop()

    @contextmanager
    def context(self, label: str) -> Iterator[None]:
        """Attribute samples taken inside the block to ``label``.

        Contexts don't nest meaningfully (the innermost label wins); the
        plane uses this to tag samples with the active protocol phase.
        """
        previous = self._context_label
        self._context_label = label
        try:
            yield
        finally:
            self._context_label = previous

    def mark(self, label: str) -> None:
        """Unscoped :meth:`context`: attribute samples to ``label`` from
        now on (the plane's begin/finish seam opens and closes a
        transaction in two different calls)."""
        self._context_label = label

    def note_span_wall(self, span_id: int, name: str, wall_ms: float) -> None:
        """Record how much wall-clock a (sim-time) span actually took."""
        self.span_wall.append((span_id, name, wall_ms))

    # -- attribution -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Frame label -> estimated self milliseconds (leaf-frame samples)."""
        out: dict[str, float] = {}
        for (_, stack), count in self._samples.items():
            if stack:
                leaf = stack[-1]
                out[leaf] = out.get(leaf, 0.0) + count * self.interval_ms
        return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))

    def collapsed(self) -> dict[str, int]:
        """Brendan-Gregg collapsed stacks: ``root;...;leaf`` -> samples.

        The sample's context (when set) becomes the root frame so a
        flamegraph splits by protocol phase.
        """
        out: dict[str, int] = {}
        for (context, stack), count in self._samples.items():
            frames = (context, *stack) if context else stack
            key = ";".join(frames)
            out[key] = out.get(key, 0) + count
        return dict(sorted(out.items()))

    def contexts(self) -> dict[str, int]:
        """Sample counts per attribution context (\"\" = unattributed)."""
        out: dict[str, int] = {}
        for (context, _), count in self._samples.items():
            out[context] = out.get(context, 0) + count
        return dict(sorted(out.items()))

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The ``profile.json`` payload (see :data:`PROFILE_SCHEMA`)."""
        stacks = [
            {"context": context, "frames": list(stack), "count": count}
            for (context, stack), count in self._samples.items()
        ]
        stacks.sort(key=lambda s: (-s["count"], s["context"], s["frames"]))
        index_of = {
            (s["context"], tuple(s["frames"])): i for i, s in enumerate(stacks)
        }
        timeline = [
            [round(t_ms, 3), index_of[key]] for t_ms, key in self._timeline
        ]
        return {
            "schema": PROFILE_SCHEMA,
            "interval_ms": self.interval_ms,
            "samples": self.sample_count,
            "wall_ms": self.wall_ms,
            "rss_peak_kb": self.rss_peak_kb,
            "gc_collections": dict(sorted(self.gc_collections.items())),
            "tracemalloc_peak_kb": self.tracemalloc_peak_kb,
            "contexts": self.contexts(),
            "self_ms": [[k, v] for k, v in self.self_times().items()],
            "span_wall_ms": [
                [span_id, name, round(wall_ms, 3)]
                for span_id, name, wall_ms in self.span_wall
            ],
            "stacks": stacks,
            "timeline": timeline,
            "timeline_dropped": self.timeline_dropped,
        }


# -- profile.json consumers ---------------------------------------------------


def collapsed_lines(profile: Mapping[str, Any]) -> list[str]:
    """A ``profile.json`` payload as flamegraph.pl collapsed-stack lines."""
    merged: dict[str, int] = {}
    for stack in profile.get("stacks", ()):
        frames = list(stack["frames"])
        if stack.get("context"):
            frames.insert(0, stack["context"])
        key = ";".join(frames)
        merged[key] = merged.get(key, 0) + int(stack["count"])
    return [f"{key} {count}" for key, count in sorted(merged.items())]


def write_flamegraph(profile: Mapping[str, Any], path: Any) -> Any:
    """Write collapsed stacks for ``flamegraph.pl`` / speedscope / inferno."""
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(collapsed_lines(profile)) + "\n")
    return path


def profile_chrome_trace_obj(profile: Mapping[str, Any]) -> dict[str, Any]:
    """The sampled timeline as a Chrome trace-event object.

    Each retained sample becomes one fixed-width slice on a dedicated
    ``profiler`` track, named after its leaf frame, with the full stack
    in ``args`` — enough for Perfetto to show where wall-time went
    without a dedicated flamegraph viewer.
    """
    interval_ms = float(profile.get("interval_ms", DEFAULT_INTERVAL_MS))
    stacks = profile.get("stacks", [])
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 9,
            "name": "thread_name",
            "args": {"name": "profiler"},
        }
    ]
    for t_ms, stack_index in profile.get("timeline", ()):
        stack = stacks[stack_index]
        frames = stack["frames"]
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": 9,
                "name": frames[-1] if frames else "?",
                "cat": "sample",
                "ts": float(t_ms) * 1000.0,
                "dur": interval_ms * 1000.0,
                "args": {
                    "stack": ";".join(frames),
                    "context": stack.get("context", ""),
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
