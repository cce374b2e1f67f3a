"""Wall-clock engine: the serving counterpart of the simulator's clock.

The protocol kernel reads time and arms timers exclusively through the
engine interface (``engine.now`` / ``schedule_in`` / ``cancel``), so a
live deployment only needs an engine whose *now* is the host's monotonic
clock and whose timers are asyncio ``call_later`` handles.  Everything
above the network edge — peers, agents, onion router — runs unmodified.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.clock import WallClock

__all__ = ["WallEngine"]


class WallEngine:
    """Engine façade over the host clock for served fleets.

    Implements the subset of :class:`repro.sim.engine.SimEngine` the
    protocol stack uses: ``now`` (milliseconds), ``schedule`` /
    ``schedule_in`` (one-shot timers on the running asyncio loop, returning
    cancellable handles), ``cancel``, and a no-op ``run`` — on the wall
    clock, time advances by itself; there is no event queue to drain.
    """

    def __init__(self, clock: WallClock | None = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.events_run = 0
        #: Run after each timer fires (the fleet's quiescence check).
        self.on_fire: Callable[[], None] | None = None
        self._armed: set[Any] = set()

    @property
    def timers_armed(self) -> int:
        """Timers armed and neither fired nor cancelled yet."""
        return len(self._armed)

    @property
    def now(self) -> float:
        """Milliseconds since the engine's clock was zeroed."""
        return self.clock.now

    def schedule_in(self, delay: float, action: Callable[[], None]) -> Any:
        """Arm ``action`` to fire ``delay`` ms from now on the running loop."""
        import asyncio

        loop = asyncio.get_running_loop()

        def fire() -> None:
            self._armed.discard(handle)
            self.events_run += 1
            action()
            if self.on_fire is not None:
                self.on_fire()

        handle = loop.call_later(max(0.0, delay) / 1000.0, fire)
        self._armed.add(handle)
        return handle

    def schedule(self, time: float, action: Callable[[], None]) -> Any:
        """Arm ``action`` for an absolute engine time (ms)."""
        return self.schedule_in(time - self.now, action)

    def cancel(self, handle: Any) -> None:
        """Cancel a timer handle returned by :meth:`schedule_in`."""
        handle.cancel()
        self._armed.discard(handle)

    def run(self, until: float | None = None) -> int:
        """No-op: wall time advances on its own; deliveries are actor-driven."""
        return 0
