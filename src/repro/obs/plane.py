"""The telemetry plane: one observer that sees a whole deployment.

:class:`TelemetryPlane` binds the three telemetry primitives together —

* an **event timeline** (a :class:`~repro.sim.trace.Tracer`): every
  network send, protocol dispatch, and fault-plane intervention as an
  instant event at simulated time;
* a **span recorder** (:class:`~repro.obs.spans.SpanRecorder`): one span
  per transaction, with derived protocol-phase children
  (``query`` / ``votes`` / ``report``) and per-message flight spans;
* a **metric registry** (:class:`~repro.obs.metrics.Registry`): live
  histograms of span durations plus pull-model collectors that absorb the
  pre-existing metric silos (message counter, MSE, response times, fault
  stats, retry stats) at snapshot time.

:meth:`TelemetryPlane.attach` instruments a system *from the outside*:
it taps the :class:`~repro.core.dispatch.ProtocolDispatcher` tracer slot
(chaining any tracer already installed), appends network and fault
observers, and wraps the system's bound ``run_transaction`` — protocol
code is untouched, and a system without a plane attached runs the exact
pre-telemetry code path.  Everything recorded is keyed to simulation
time, so output is a pure function of the seed.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.errors import ConfigError
from repro.obs.metrics import Registry
from repro.obs.spans import Span, SpanRecorder
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.prof import Profiler

__all__ = ["TelemetryPlane"]

#: Event categories that open/extend the derived protocol-phase spans.
#: Maps accounting category -> phase name (hiREP and flooding baselines
#: share the taxonomy: a query fans out, votes come back, reports settle).
_PHASE_OF_CATEGORY = {
    "trust_query": "query",
    "flood_query": "query",
    "trust_response": "votes",
    "flood_response": "votes",
    "transaction_report": "report",
}

#: Order phases are emitted in when present (dict order is insertion
#: order, but the contract deserves to be explicit).
_PHASE_ORDER = ("query", "votes", "report")


class _Attachment:
    """Per-system instrumentation state (one per :meth:`attach` call)."""

    __slots__ = ("system", "label", "engine", "txn_span", "phase_windows")

    def __init__(self, system: Any, label: str | None) -> None:
        self.system = system
        self.label = label
        self.engine = system.network.engine
        #: the open transaction span, if a transaction is in flight.
        self.txn_span: Span | None = None
        #: phase name -> [first_ms, last_ms] observed inside the open txn.
        self.phase_windows: dict[str, list[float]] = {}

    def mark_phase(self, category: str, now: float) -> None:
        phase = _PHASE_OF_CATEGORY.get(category)
        if phase is None or self.txn_span is None:
            return
        window = self.phase_windows.get(phase)
        if window is None:
            self.phase_windows[phase] = [now, now]
        else:
            window[1] = now


class TelemetryPlane:
    """Spans + events + metrics for one or more attached systems.

    Parameters
    ----------
    capacity:
        Event-timeline buffer size (evictions are counted, never silent).
    categories:
        Optional category allow-list for the event timeline (spans and
        metrics are unaffected).
    flight_spans:
        Record one span per dispatched protocol message (sent → handled).
        On by default; disable for huge runs where per-message spans
        dominate the bundle.
    """

    def __init__(
        self,
        *,
        capacity: int = 1_000_000,
        categories: Any = None,
        flight_spans: bool = True,
        profiler: "Profiler | None" = None,
    ) -> None:
        self.tracer = Tracer(capacity=capacity, categories=categories)
        self.spans = SpanRecorder()
        self.registry = Registry()
        self.flight_spans = flight_spans
        self.profiler: "Profiler | None" = None
        self._attachments: list[_Attachment] = []
        self.registry.register_collector(self._self_collector)
        if profiler is not None:
            self.set_profiler(profiler)

    def set_profiler(self, profiler: "Profiler") -> "Profiler":
        """Join a :class:`~repro.obs.prof.Profiler` to this plane.

        The profiler's watermark gauges (``prof.*``) enter the metric
        snapshot, transaction spans gain a ``wall_ms`` attribute, and
        samples taken inside a transaction are attributed to the
        ``transaction`` context.  Starting/stopping the profiler stays
        the caller's job (``capture(profile=True)`` does both).
        """
        if self.profiler is not None:
            raise ConfigError("telemetry plane already has a profiler")
        self.profiler = profiler
        self.registry.register_collector(profiler.collect)
        return profiler

    # -- introspection -----------------------------------------------------

    @property
    def attached(self) -> int:
        """How many systems this plane instruments."""
        return len(self._attachments)

    def labels(self) -> list[str]:
        return [a.label or "" for a in self._attachments]

    def _self_collector(self) -> dict[str, float]:
        return {
            "obs.events.recorded": self.tracer.recorded,
            "obs.events.evicted": self.tracer.evicted,
            "obs.spans.recorded": len(self.spans),
        }

    # -- attachment --------------------------------------------------------

    def attach(self, system: Any, *, label: str | None = None) -> "TelemetryPlane":
        """Instrument ``system`` (any :class:`TransactionRuntime`).

        The first attachment is unlabelled; subsequent ones default to
        ``sys1``, ``sys2``, ... so multi-system captures (e.g. a baseline
        comparison) keep their metric namespaces apart.
        """
        if not hasattr(system.network, "engine"):
            raise ConfigError(
                f"{type(system).__name__} has no event engine or protocol "
                "dispatcher for the telemetry plane to tap; capture on 'hirep'"
            )
        if label is None and self._attachments:
            label = f"sys{len(self._attachments)}"
        att = _Attachment(system, label)
        self._attachments.append(att)
        self._install_network_taps(att)
        self._install_dispatch_tap(att)
        self._wrap_run_transaction(att)
        self._register_system_collector(att)
        return self

    # -- event recording ---------------------------------------------------

    def _record(self, att: _Attachment, category: str, /, **fields: Any) -> None:
        if att.label is not None:
            fields["sys"] = att.label
        self.tracer.record(att.engine.now, category, **fields)

    def _install_network_taps(self, att: _Attachment) -> None:
        network = att.system.network

        def on_send(msg: Any) -> None:
            # Same convention as repro.sim.trace.tap_network: the event
            # category IS the message category, so timelines read
            # "trust_query src=3 dst=17" rather than a flat "net.send".
            self._record(
                att,
                msg.category,
                src=msg.src,
                dst=msg.dst,
                bytes=msg.size_bytes,
            )
            att.mark_phase(msg.category, att.engine.now)

        def on_fault(kind: str, msg: Any, extra_ms: float) -> None:
            if kind == "delay":
                self._record(
                    att,
                    "fault.delay",
                    src=msg.src,
                    dst=msg.dst,
                    category=msg.category,
                    extra_ms=extra_ms,
                )
                self.registry.counter("obs.fault.delays").inc()
            else:
                self._record(
                    att,
                    "fault.drop",
                    src=msg.src,
                    dst=msg.dst,
                    category=msg.category,
                )
                self.registry.counter("obs.fault.drops").inc()

        network.observers.append(on_send)
        network.fault_observers.append(on_fault)

    def _install_dispatch_tap(self, att: _Attachment) -> None:
        dispatcher = getattr(att.system, "dispatcher", None)
        if dispatcher is None:
            return  # flooding/gossip baselines have no dispatch layer
        previous = dispatcher.tracer

        def tap(record: Any) -> None:
            if previous is not None:
                previous(record)
            now = att.engine.now
            name = type(record.message).__name__
            if record.handled:
                self._record(
                    att, "dispatch.handled", ip=record.ip, msg=name, role=record.role
                )
            else:
                self._record(att, "dispatch.dropped", ip=record.ip, msg=name)
            if self.flight_spans and att.txn_span is not None:
                flight = self.spans.emit(
                    f"msg.{name}",
                    min(record.sent_at, now),
                    now,
                    category="msg",
                    parent=att.txn_span,
                    ip=record.ip,
                )
                if att.label is not None:
                    flight.attrs["sys"] = att.label

        dispatcher.tracer = tap

    # -- transaction spans -------------------------------------------------

    def _wrap_run_transaction(self, att: _Attachment) -> None:
        inner = att.system.run_transaction

        def run_transaction(*args: Any, **kwargs: Any) -> Any:
            span = self.spans.begin(
                "transaction",
                start_ms=att.engine.now,
                category="txn",
                index=att.system.transactions_run,
            )
            if att.label is not None:
                span.attrs["sys"] = att.label
            att.txn_span = span
            att.phase_windows = {}
            profiler = self.profiler
            try:
                if profiler is not None:
                    # The join lives in the profiler (profile.json), not in
                    # span attrs: wall-clock values in the span tree would
                    # make the hashed bundle files nondeterministic.
                    wall_t0 = profiler.clock.now
                    with profiler.context("transaction"):
                        outcome = inner(*args, **kwargs)
                    profiler.note_span_wall(
                        span.span_id, span.name, profiler.clock.now - wall_t0
                    )
                else:
                    outcome = inner(*args, **kwargs)
            finally:
                self._finish_transaction(att, span)
            span.attrs.update(
                requestor=outcome.requestor,
                provider=outcome.provider,
                estimate=outcome.estimate,
                messages=outcome.total_messages or outcome.messages,
            )
            return outcome

        # Shadow the bound method on the instance only — the class, and
        # every uninstrumented system, keeps the original.
        att.system.run_transaction = run_transaction

    def _finish_transaction(self, att: _Attachment, span: Span) -> None:
        end = att.engine.now
        for phase in _PHASE_ORDER:
            window = att.phase_windows.get(phase)
            if window is None:
                continue
            # Events only happen between txn begin and end (sim time is
            # monotonic), so the window is already inside the parent.
            first, last = window
            phase_span = self.spans.emit(
                phase, first, last, category="phase", parent=span
            )
            if att.label is not None:
                phase_span.attrs["sys"] = att.label
            self._observe_span(phase_span)
        att.txn_span = None
        att.phase_windows = {}
        self.spans.finish(span, end)
        self._observe_span(span)

    def _observe_span(self, span: Span) -> None:
        self.registry.histogram(f"span_ms[{span.name}]").observe(span.duration_ms)

    # -- metric absorption -------------------------------------------------

    def _register_system_collector(self, att: _Attachment) -> None:
        prefix = f"{att.label}." if att.label else ""
        system = att.system

        def collector() -> dict[str, float]:
            out: dict[str, float] = {}
            counter = system.counter
            out[f"{prefix}net.messages.total"] = counter.total
            for category in sorted(counter.by_category):
                out[f"{prefix}net.messages[{category}]"] = counter.by_category[
                    category
                ]
            out[f"{prefix}transactions"] = system.transactions_run
            out[f"{prefix}trust.mse"] = system.mse.mse()
            out[f"{prefix}response_ms.mean"] = system.response_times.mean()
            out[f"{prefix}response_ms.count"] = len(system.response_times)
            retry_stats = getattr(system, "retry_stats", None)
            if callable(retry_stats):
                for key, value in retry_stats().items():
                    out[f"{prefix}retry.{key}"] = value
            faults = getattr(system.network, "faults", None)
            if faults is not None:
                for key, value in faults.stats.as_dict().items():
                    out[f"{prefix}fault.{key}"] = value
            return out

        self.registry.register_collector(collector)

    # -- snapshot ----------------------------------------------------------

    def collect(self) -> dict[str, float]:
        """The registry snapshot (sorted; see :meth:`Registry.collect`)."""
        return self.registry.collect()
