"""Layer tracing for the hirep-e2e benchmark, recorded from outside `repro`.

A traced run wraps the *public* calls into each layer (the table in
:data:`WRAPS`) so every call opens a span on a :class:`repro.obs.spans.
SpanRecorder` stamped by a :class:`repro.obs.clock.WallClock`.  Nothing
inside ``repro`` changes: the wrappers are installed on the classes and
module namespaces before the system under test is built, and removed when
the traced measurement ends.  Spans stay in memory; the caller decides
whether to write them out after the run.

All wrapped calls are synchronous and the workloads are single-threaded,
so spans nest strictly and a span's self time is its duration minus its
direct children.  The one wrapped coroutine (``ServeSystem.drain``) only
*waits*; its wall time is tallied as waiting and kept out of the tree.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.obs.clock import WallClock
from repro.obs.spans import Span, SpanRecorder

__all__ = ["ROOT_CATEGORY", "WRAPS", "LayerTotals", "Totals", "Tracer", "Wrap"]

#: Category of the harness's own phase spans (set-up, run, teardown).
ROOT_CATEGORY = "phase"


@dataclass(frozen=True)
class Wrap:
    """One public call to trace: where it is bound and the span it opens."""

    module: str
    attr: str  # dotted path below the module, e.g. "HiRepPeer.settle_transaction"
    span: str
    #: Optional ``measure(result) -> int`` stored on the span as ``tally``.
    tally: str | None = None
    measure: Callable[[Any], int] | None = None


#: Every traced boundary.  A function imported by name is patched in the
#: namespace that *calls* it (``from x import f`` copies the binding).
WRAPS: tuple[Wrap, ...] = (
    # net
    Wrap("repro.core.world", "topology_for_degree", "net.topology_build"),
    Wrap("repro.core.world", "World.from_config", "net.network_build"),
    Wrap("repro.net.churn", "ChurnModel.step", "net.churn_step"),
    # crypto / onion / sim
    Wrap("repro.crypto.keys", "PeerKeys.generate", "crypto.keygen"),
    Wrap("repro.core.peer", "build_onion", "onion.build"),
    Wrap("repro.net.network", "P2PNetwork.run", "sim.run", "sim.events", int),
    # core
    Wrap("repro.core.system", "build_wiring", "core.wiring"),
    Wrap("repro.serve.system", "build_wiring", "core.wiring"),
    Wrap("repro.core.services", "MaintenanceService.bootstrap", "core.bootstrap"),
    Wrap("repro.core.services", "MaintenanceService.discover_for", "core.discover"),
    Wrap("repro.core.services", "discover_agent_lists", "core.flood"),
    Wrap("repro.vector.system", "discover_agent_lists", "core.flood"),
    Wrap("repro.core.services", "rank_within_list", "core.rank"),
    Wrap("repro.core.services", "select_agents", "core.rank"),
    Wrap("repro.vector.system", "rank_within_list", "core.rank"),
    Wrap("repro.vector.system", "select_agents", "core.rank"),
    Wrap("repro.core.services", "MaintenanceService.maintain", "core.maintain"),
    Wrap("repro.core.services", "QueryService.execute", "core.query"),
    Wrap("repro.core.peer", "HiRepPeer.start_query", "core.query_start"),
    Wrap("repro.core.peer", "HiRepPeer.settle_transaction", "core.settle"),
    Wrap("repro.core.dispatch", "ProtocolDispatcher.dispatch", "core.dispatch"),
    Wrap("repro.serve.network", "encode", "core.wire_encode", "core.wire_bytes", len),
    Wrap("repro.serve.network", "decode", "core.wire_decode"),
    # serve
    Wrap("repro.serve.supervisor", "Supervisor.checkpoint_agent", "serve.checkpoint"),
    Wrap("repro.serve.transport", "InProcessTransport.post", "serve.post"),
    Wrap("repro.serve.network", "ServeNetwork.deliver_frame", "serve.deliver"),
    Wrap("repro.serve.system", "ServeSystem.drain", "serve.drain"),
)


@dataclass
class LayerTotals:
    """What one span name cost, in weighted milliseconds and calls."""

    inclusive_ms: float = 0.0
    self_ms: float = 0.0
    calls: float = 0.0


@dataclass
class Totals:
    """A traced measurement folded to one nominal whole run."""

    layers: dict[str, LayerTotals] = field(default_factory=dict)
    tallies: Counter[str] = field(default_factory=Counter)
    waits_ms: Counter[str] = field(default_factory=Counter)  # awaited, not in the tree
    total_ms: float = 0.0  # weighted wall of the root phase spans
    other_ms: float = 0.0  # the roots' own self time: wall inside no wrapped call


class Tracer:
    """Span recorder plus the call stack that parents each new span."""

    def __init__(self) -> None:
        self.clock = WallClock()
        self.recorder = SpanRecorder()
        #: Wall ms spent awaiting wrapped coroutines, by (root phase, span name).
        self._waits_ms: Counter[tuple[str, str]] = Counter()
        self._stack: list[Span] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, category: str = "layer", **attrs: Any) -> Iterator[Span]:
        """Open a span from harness code, parented on the enclosing one."""
        parent = self._stack[-1] if self._stack else None
        span = self.recorder.begin(
            name, start_ms=self.clock.now, category=category, parent=parent, **attrs
        )
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self.recorder.finish(span, self.clock.now)

    def _traced(self, wrap: Wrap, fn: Callable[..., Any]) -> Callable[..., Any]:
        recorder, clock, stack = self.recorder, self.clock, self._stack
        name, tally, measure = wrap.span, wrap.tally, wrap.measure

        if inspect.iscoroutinefunction(fn):
            waits = self._waits_ms

            async def traced_wait(*args: Any, **kwargs: Any) -> Any:
                root = stack[0].name if stack else ""
                t0 = clock.now
                try:
                    return await fn(*args, **kwargs)
                finally:
                    waits[root, name] += clock.now - t0

            return traced_wait

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = recorder.begin(
                name, start_ms=clock.now, parent=stack[-1] if stack else None
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    span.attrs[tally] = measure(result)
                return result
            finally:
                stack.pop()
                recorder.finish(span, clock.now)

        return traced

    # -- installing ----------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every boundary in :data:`WRAPS` for the duration of the block."""
        try:
            for wrap in WRAPS:
                owner: Any = importlib.import_module(wrap.module)
                *path, attr = wrap.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, classmethod):
                    patched: Any = classmethod(self._traced(wrap, original.__func__))
                else:
                    patched = self._traced(wrap, original)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def totals(self, weights: dict[str, float]) -> Totals:
        """Aggregate finished spans by name.

        ``weights`` maps each root phase span's name to the factor that
        scales it to one nominal whole run (e.g. 1/3 when three set-ups
        were traced); a span inherits the weight of the root above it.
        """
        spans = self.recorder.spans()
        weight: dict[int, float] = {}
        child_ms: Counter[int] = Counter()
        for span in spans:
            if span.parent_id is None:
                weight[span.span_id] = weights[span.name]
            else:
                weight[span.span_id] = weight[span.parent_id]
                child_ms[span.parent_id] += span.duration_ms
        out = Totals()
        for (root, name), waited in self._waits_ms.items():
            out.waits_ms[name] += weights[root] * waited
        for span in spans:
            w = weight[span.span_id]
            self_ms = span.duration_ms - child_ms[span.span_id]
            if span.category == ROOT_CATEGORY:
                out.total_ms += w * span.duration_ms
                out.other_ms += w * self_ms
                continue
            layer = out.layers.setdefault(span.name, LayerTotals())
            layer.inclusive_ms += w * span.duration_ms
            layer.self_ms += w * self_ms
            layer.calls += w
            for key, value in span.attrs.items():
                out.tallies[key] += w * value
        return out
