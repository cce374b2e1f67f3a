"""Wall-clock engine: the serving counterpart of the simulator's clock.

The protocol kernel reads time through the engine interface
(``engine.now``), so a live deployment only needs an engine whose *now* is
the host's monotonic clock.  Everything above the network edge — peers,
agents, onion router — runs unmodified.  It arms no timers: the one
protocol path that would, the query deadline, is refused on ``serve``
(:data:`~repro.core.registry.CAPABILITIES`), because its milliseconds are
modelled time on the simulators.
"""

from __future__ import annotations

from repro.obs.clock import WallClock

__all__ = ["WallEngine"]


class WallEngine:
    """Engine façade over the host clock for served fleets.

    Implements the subset of :class:`repro.sim.engine.SimEngine` the live
    protocol stack uses: ``now`` (milliseconds) and a no-op ``run`` — on
    the wall clock, time advances by itself; there is no event queue to
    drain.
    """

    def __init__(self, clock: WallClock | None = None) -> None:
        self.clock = clock if clock is not None else WallClock()

    @property
    def now(self) -> float:
        """Milliseconds since the engine's clock was zeroed."""
        return self.clock.now

    def run(self, until: float | None = None) -> int:
        """No-op: wall time advances on its own; deliveries are actor-driven."""
        return 0
