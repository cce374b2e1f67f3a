"""Discrete-event simulation engine.

:class:`SimEngine` is the clock, the queue and the loop: a ``heapq`` of
``[time, seq, action, arg]`` entries ordered by ``(time, seq)``, where
``seq`` is the scheduling order — equal timestamps fire
first-scheduled-first, so the execution order is deterministic regardless
of heap internals.  Callbacks schedule further events through
:meth:`SimEngine.schedule` (absolute time) or :meth:`SimEngine.schedule_in`
(relative delay).  An entry may carry one argument for its action
(``schedule(time, action, arg)`` fires ``action(arg)``), so a caller that
schedules a bound method per message builds no closure for it.

The engine keeps no per-event bookkeeping other than an event counter —
metric collection is the responsibility of the components that schedule
events.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = ["SimEngine"]

#: What ``schedule`` returns and ``cancel`` takes: the heap entry itself,
#: ``[time, seq, action, arg]``; ``action`` is None once fired or cancelled.
Handle = list[Any]

#: ``arg`` of an entry whose action takes no argument.
_NO_ARG: Any = object()


class SimEngine:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start:
        Initial simulation time (default ``0.0``; milliseconds by library
        convention).

    Examples
    --------
    >>> engine = SimEngine()
    >>> fired = []
    >>> _ = engine.schedule_in(5.0, lambda: fired.append(engine.now))
    >>> engine.run()
    1
    >>> fired
    [5.0]
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"engine cannot start at negative time {start!r}")
        #: Current simulation time; only :meth:`run` moves it, never backwards.
        self.now = float(start)
        self.events_processed = 0
        self._heap: list[Handle] = []
        self._seq = 0
        self._live = 0
        self._running = False

    def __len__(self) -> int:
        """Number of scheduled events not yet fired or cancelled."""
        return self._live

    def schedule(
        self, time: float, action: Callable[..., Any], arg: Any = _NO_ARG
    ) -> Handle:
        """Schedule ``action()`` — or ``action(arg)`` when ``arg`` is given —
        at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: now={self.now!r}, time={time!r}"
            )
        entry: Handle = [float(time), self._seq, action, arg]
        self._seq += 1
        self._live += 1
        heappush(self._heap, entry)
        return entry

    def schedule_in(self, delay: float, action: Callable[[], Any]) -> Handle:
        """Schedule ``action`` after a relative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule(self.now + delay, action)

    def cancel(self, handle: Handle) -> None:
        """Cancel a scheduled event (idempotent; a no-op once it has fired).

        Deletion is lazy: the entry stays in the heap with its action
        cleared and is skipped when it reaches the top.
        """
        if handle[2] is not None:
            handle[2] = None
            self._live -= 1

    def run(self, until: float | None = None) -> int:
        """Drain the queue; return the number of events executed.

        Parameters
        ----------
        until:
            Stop before executing any event scheduled strictly after this
            time; later events stay queued and the clock is advanced to
            ``until``.
        """
        if self._running:
            raise SimulationError("engine is not reentrant: run() called from a callback")
        self._running = True
        heap = self._heap
        no_arg = _NO_ARG
        before = self.events_processed
        try:
            while heap:
                entry = heap[0]
                if until is not None and entry[0] > until:
                    break
                heappop(heap)
                action = entry[2]
                if action is None:
                    continue  # cancelled
                entry[2] = None
                self._live -= 1
                self.now = entry[0]
                self.events_processed += 1
                arg = entry[3]
                if arg is no_arg:
                    action()
                else:
                    action(arg)
        finally:
            self._running = False
        if until is not None and until > self.now:
            self.now = float(until)
        return self.events_processed - before
