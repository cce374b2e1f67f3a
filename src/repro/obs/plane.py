"""The telemetry plane: one observer that sees a whole deployment.

:class:`TelemetryPlane` holds two records and reads one metric store —

* an **event timeline** (a :class:`~repro.sim.trace.Tracer`): every
  network send, protocol dispatch, and fault-plane intervention as an
  instant event at simulated time;
* a **span recorder** (:class:`~repro.obs.spans.SpanRecorder`): one span
  per transaction with its two protocol phases (``transaction → query →
  report``), plus per-message flight spans; each span carries its own
  duration, and a transaction span its ``messages``;
* :meth:`TelemetryPlane.collect`: the systems' own metrics (message
  counter, MSE, response times, fault stats, retry and serve counters),
  read at snapshot time and merged with the plane's record counts.  The
  plane keeps no metric of its own that a span or event already holds.

Transactions reach the plane through the one seam every executor shares:
:meth:`~repro.core.runtime.TransactionRuntime.begin` calls
:meth:`TelemetryPlane.transaction_begun`, ``finish`` calls
:meth:`TelemetryPlane.transaction_finished`, and the operator *states*
where its query phase ended — nothing is re-derived from message
categories.  :meth:`TelemetryPlane.attach` therefore only sets
``system.telemetry`` and hooks whatever else the system **has**: network
observer lists (per-send and fault events) and a protocol dispatcher (its
``tap`` slot).  A system without a plane runs the exact pre-telemetry
code path.  Everything recorded is keyed to the system's own clock, so
simulator output is a pure function of the seed.
"""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

from repro.errors import ConfigError
from repro.obs.spans import Span, SpanRecorder
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.prof import Profiler

__all__ = ["TelemetryPlane"]

#: Event-timeline buffer size (evictions are counted, never silent).
TIMELINE_CAPACITY = 1_000_000


class _Attachment:
    """Per-system state: label, clock, and the transactions in flight."""

    __slots__ = ("system", "label", "prefix", "tag", "engine", "elapsed_ms", "open")

    def __init__(self, system: Any, label: str | None) -> None:
        self.system = system
        self.label = label or ""
        #: metric-name prefix, and the ``sys`` field stamped on this
        #: system's events and spans (both empty for the first system).
        self.prefix = f"{label}." if label else ""
        self.tag = {"sys": label} if label else {}
        #: DES or wall engine; None where time is billed analytically.
        self.engine = getattr(system.network, "engine", None)
        #: The clock of an engine-less executor: cumulative response time,
        #: i.e. the y-axis of Fig. 8.
        self.elapsed_ms = 0.0
        #: span id -> open transaction span, oldest first.
        self.open: dict[int, Span] = {}

    @property
    def now(self) -> float:
        return self.elapsed_ms if self.engine is None else self.engine.now


class TelemetryPlane:
    """Spans + events + metrics for one or more attached systems.

    Parameters
    ----------
    flight_spans:
        Tap the protocol dispatcher: one ``dispatch.handled`` /
        ``dispatch.dropped`` event and one ``msg.*`` span (sent →
        handled) per delivered protocol message.  On by default; disable
        where per-message records would dominate (huge runs, and the
        always-on plane of a live fleet).
    """

    def __init__(self, *, flight_spans: bool = True) -> None:
        self.tracer = Tracer(capacity=TIMELINE_CAPACITY)
        self.spans = SpanRecorder()
        self.flight_spans = flight_spans
        self.profiler: "Profiler | None" = None
        #: id(system) -> its attachment (the plane keeps the system alive).
        self._attachments: dict[int, _Attachment] = {}
        #: span id -> wall-clock ms at begin, while a profiler is joined.
        self._wall_t0: dict[int, float] = {}

    def set_profiler(self, profiler: "Profiler") -> "Profiler":
        """Join a :class:`~repro.obs.prof.Profiler` to this plane.

        Every transaction span's wall-clock cost is noted in the
        profiler's ``span_wall`` join, and samples taken while a
        transaction is in flight are attributed to the ``transaction``
        context.  Nothing wall-clock enters :meth:`collect`; the profile
        is its own bundle file.  Starting/stopping the profiler stays the
        caller's job (``capture(profile=True)`` does both).
        """
        if self.profiler is not None:
            raise ConfigError("telemetry plane already has a profiler")
        self.profiler = profiler
        return profiler

    # -- introspection -----------------------------------------------------

    @property
    def attached(self) -> int:
        """How many systems this plane instruments."""
        return len(self._attachments)

    def labels(self) -> list[str]:
        return [a.label for a in self._attachments.values()]

    # -- attachment --------------------------------------------------------

    def attach(self, system: Any, *, label: str | None = None) -> "TelemetryPlane":
        """Listen to ``system`` (any :class:`TransactionRuntime`).

        Sets ``system.telemetry`` — from then on the runtime's
        ``begin``/``finish`` report every transaction here — and hooks
        what the system has: a network with observer lists gets the send
        and fault observers, a protocol dispatcher gets its ``tap`` (when
        ``flight_spans`` is on), and its counters join :meth:`collect`.
        A system whose traffic is billed analytically (the array kernel,
        the flooding baselines) sends nothing for the first two to see
        and yields transaction spans and metrics only.

        A system has one plane: attaching it again is a no-op, attaching
        it to a second plane raises.  A plane may hold several systems;
        the first is unlabelled, later ones default to ``sys1``, ``sys2``,
        ... so multi-system captures (e.g. a baseline comparison) keep
        their metric namespaces apart.  A label already in use is refused.
        """
        current = getattr(system, "telemetry", None)
        if current is self:
            return self
        if current is not None:
            raise ConfigError(
                f"{type(system).__name__} already reports to a telemetry "
                "plane; a system has exactly one"
            )
        if label is None and self._attachments:
            label = f"sys{len(self._attachments)}"
        if (label or "") in self.labels():
            raise ConfigError(
                f"telemetry label {label!r} is already in use on this plane"
            )
        att = self._attachments[id(system)] = _Attachment(system, label)
        system.telemetry = self
        if hasattr(system.network, "observers"):
            self._observe_network(att)
        dispatcher = getattr(system, "dispatcher", None)
        if dispatcher is not None and self.flight_spans:
            dispatcher.tap = self._dispatch_tap(att)
        return self

    # -- events ------------------------------------------------------------

    def _observe_network(self, att: _Attachment) -> None:
        network, engine, tag = att.system.network, att.engine, att.tag
        record, record_send = self.tracer.record, self.tracer.record_send

        # The event category IS the message category, so timelines read
        # "trust_query src=3 dst=17" rather than a flat "net.send"; the time
        # is the one the network stamped the message with as it sent it.
        if tag:

            def on_send(msg: Any) -> None:
                record(
                    msg.sent_at,
                    msg.category,
                    src=msg.src,
                    dst=msg.dst,
                    bytes=msg.size_bytes,
                    **tag,
                )

        else:

            def on_send(msg: Any) -> None:
                record_send(msg.sent_at, msg.category, msg.src, msg.dst, msg.size_bytes)

        def on_fault(kind: str, msg: Any, extra_ms: float) -> None:
            # kind is "drop" or "delay"; the event carries the category of
            # the message it hit, a delay also how long.
            fields = {"src": msg.src, "dst": msg.dst, "category": msg.category}
            if kind == "delay":
                fields["extra_ms"] = extra_ms
            record(engine.now, f"fault.{kind}", **fields, **tag)

        network.observers.append(on_send)
        network.fault_observers.append(on_fault)

    def _dispatch_tap(
        self, att: _Attachment
    ) -> Callable[[int, Any, float, str | None], None]:
        engine, tag, spans = att.engine, att.tag, self.spans
        record = self.tracer.record

        def tap(ip: int, message: Any, sent_at: float, role: str | None) -> None:
            now = engine.now
            name = type(message).__name__
            if role is None:
                record(now, "dispatch.dropped", ip=ip, msg=name, **tag)
            else:
                record(now, "dispatch.handled", ip=ip, msg=name, role=role, **tag)
            # A flight belongs to the transaction in flight — the latest
            # admitted one where several overlap (the live plane).
            parent = next(reversed(att.open.values()), None)
            if parent is not None:
                spans.emit(
                    f"msg.{name}",
                    min(sent_at, now),
                    now,
                    category="msg",
                    parent=parent,
                    ip=ip,
                    **tag,
                )

        return tap

    # -- transactions (called by TransactionRuntime.begin / finish) ---------

    def transaction_begun(self, system: Any, index: int) -> Span:
        """Open the ``transaction`` span of ``system``'s ``index``-th
        admitted transaction; it rides on the ``Ticket`` to ``finish``."""
        att = self._attachments[id(system)]
        span = self.spans.begin(
            "transaction", start_ms=att.now, category="txn", index=index, **att.tag
        )
        att.open[span.span_id] = span
        if self.profiler is not None:
            self._wall_t0[span.span_id] = self.profiler.clock.now
            self.profiler.mark("transaction")
        return span

    def transaction_finished(
        self, system: Any, span: Span, outcome: Any, query_ms: float
    ) -> None:
        """Close ``span`` with its outcome and emit its two phases.

        ``query_ms`` is what the operator stated: how long after admission
        the estimate was in hand (NaN — a blind query — is no time at
        all); ``report`` is the remainder: settlement, reports, drain.
        """
        att = self._attachments[id(system)]
        del att.open[span.span_id]
        elapsed = outcome.response_time_ms
        if att.engine is None and elapsed == elapsed:
            att.elapsed_ms += elapsed
        start, end = span.start_ms, att.now
        # min(): start + (t - start) may land an ulp past t == end.
        split = min(start + query_ms, end) if query_ms == query_ms else start
        for name, lo, hi in (("query", start, split), ("report", split, end)):
            self.spans.emit(name, lo, hi, category="phase", parent=span, **att.tag)
        self.spans.finish(
            span,
            end,
            requestor=outcome.requestor,
            provider=outcome.provider,
            estimate=outcome.estimate,
            messages=outcome.total_messages or outcome.messages,
        )
        wall_t0 = self._wall_t0.pop(span.span_id, None)
        if wall_t0 is not None:
            # The join lives in the profiler (profile.json), not in span
            # attrs: wall-clock values in the span tree would make the
            # hashed bundle files nondeterministic.
            profiler = self.profiler
            profiler.note_span_wall(
                span.span_id, span.name, profiler.clock.now - wall_t0
            )
            if not self._wall_t0:
                profiler.mark("")

    # -- metrics -----------------------------------------------------------

    def _system_metrics(self, att: _Attachment) -> dict[str, float]:
        system = att.system
        counter = system.counter
        out: dict[str, float] = {
            "net.messages.total": counter.total,
            "transactions": system.transactions_run,
            "trust.mse": system.mse.mse(),
            "response_ms.mean": system.response_times.mean(),
            "response_ms.count": len(system.response_times),
        }
        for category, count in counter.by_category.items():
            out[f"net.messages[{category}]"] = count
        faults = getattr(system.network, "faults", None)
        if faults is not None:
            for key, value in faults.stats.as_dict().items():
                out[f"fault.{key}"] = value
        out.update(system._telemetry_metrics())
        return {f"{att.prefix}{name}": value for name, value in out.items()}

    def collect(self) -> dict[str, float]:
        """One flat, name-sorted snapshot — what ``metrics.json`` holds.

        The plane's own record counts (``obs.*``), then every attached
        system's metrics under its label prefix.  Labels are unique
        (:meth:`attach` refuses a reused one), so no two systems can
        write the same key.  Nothing here reads the wall clock: the
        snapshot is a pure function of the simulation.
        """
        out: dict[str, float] = {
            "obs.events.recorded": self.tracer.recorded,
            "obs.events.evicted": self.tracer.evicted,
            "obs.spans.recorded": len(self.spans),
        }
        for att in self._attachments.values():
            out.update(self._system_metrics(att))
        return dict(sorted(out.items()))
