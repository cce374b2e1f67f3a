"""ServeSystem: the hiREP protocol kernel running as a live service.

Construction follows :class:`~repro.core.system.HiRepSystem` draw for
draw — same :class:`~repro.core.world.World` streams, same
:func:`~repro.core.services.build_wiring` — except the network edge is a
:class:`~repro.serve.network.ServeNetwork` posting encoded frames on a
real transport, and the engine is the host's clock
(:class:`~repro.obs.clock.WallClock`, which has the ``now`` the kernel
reads).  A :class:`~repro.serve.supervisor.Supervisor` runs one actor per
node on a private asyncio loop.

The transaction cycle *is* the simulator's:
:meth:`~repro.core.runtime.TransactionRuntime.begin` and
:meth:`~repro.core.runtime.TransactionRuntime.finish` run unchanged around
the one awaited step.  The only structural difference is *how* the query
reaches quiescence: the DES drains an event queue, the service plane
awaits the requestor actor's activity until every outstanding request is
answered or nothing is left to arrive — no frame in flight, the live form
of an empty event queue.  With a serialized load (one transaction at a
time) the two backends make identical RNG draws, which is what the
determinism-guard test pins.

What the fleet refuses is ``serve``'s row of
:data:`~repro.core.registry.CAPABILITIES`, raised by
:func:`~repro.core.registry.build_system` before the fleet is built:
churn, a custom topology or model factory, and a set
``query_timeout_ms`` — a deadline on the host's clock would run another
retry schedule than the simulators' modelled milliseconds, so the fleet
arms none.  ``FaultPlane.install`` refuses a fault plane from the same
row: the live send path has no fault hook.

A fleet always reports to a :class:`~repro.obs.plane.TelemetryPlane`
(``system.telemetry``) through the runtime's shared begin/finish seam:
wall-clock transaction/query/report spans, one event per send,
msgs-per-tx and the fleet counters, exportable as a standard bundle.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Callable

from repro.core.config import HiRepConfig
from repro.core.interface import Outcome
from repro.core.peer import HiRepPeer
from repro.core.runtime import Estimate, HiRepRuntime, Ticket
from repro.core.services import MaintenanceService, QueryService, build_wiring
from repro.core.world import World
from repro.crypto.backend import get_backend
from repro.obs.capture import current_plane
from repro.obs.clock import WallClock
from repro.obs.plane import TelemetryPlane
from repro.serve.network import ServeNetwork
from repro.serve.supervisor import Supervisor
from repro.serve.transport import Transport, make_transport

__all__ = ["ServeSystem"]

#: How long one wait — a query's for its last trust response, a drain's for
#: quiescence — may take.  Both end sooner once nothing is in flight; this
#: bounds only a hung fleet (frames counted in flight that never arrive).
WAIT_WINDOW_MS = 5_000.0


class ServeSystem(HiRepRuntime):
    """A live hiREP fleet: asyncio actors over a real transport."""

    executor = "serve"

    def __init__(
        self,
        config: HiRepConfig | None = None,
        *,
        transport: Transport | str = "inproc",
        checkpoint_every: int = 32,
    ) -> None:
        """Build the fleet (not yet running; see :meth:`up`).

        ``checkpoint_every`` is how many frames an agent-hosting actor
        handles between checkpoints.  One query waits until it is answered
        or the fleet is quiet, and a per-transaction drain until the fleet
        is quiet, each at most :data:`WAIT_WINDOW_MS`.  The fleet reports
        to the open :func:`~repro.obs.capture.capture` window's plane if
        there is one, else to a plane of its own (one event per send,
        three spans per transaction, no per-message flight spans).
        """
        config = config or HiRepConfig()
        #: The engine seam's clock: the host's, in milliseconds (``now``).
        self.engine = WallClock()
        self.transport: Transport = (
            make_transport(transport) if isinstance(transport, str) else transport
        )
        world = World.from_config(
            config,
            network_factory=functools.partial(
                ServeNetwork, engine=self.engine, transport=self.transport
            ),
        )
        super().__init__(config, world)

        self.backend = get_backend(config.crypto_backend)
        self.wiring = build_wiring(config, world, self.backend)
        self.router = self.wiring.router
        self.dispatcher = self.wiring.dispatcher
        self.peers = self.wiring.peers
        self.agents = self.wiring.agents
        self.agent_quality = self.wiring.agent_quality
        self.maintenance = MaintenanceService(config, world, self.wiring)
        self.queries = QueryService(world, self.wiring)
        self.supervisor = Supervisor(
            self.wiring,
            self.network,
            self.transport,
            checkpoint_every=checkpoint_every,
        )
        #: When True (the serialized-load mode) every transaction waits for
        #: transport quiescence after settlement, so per-transaction
        #: message deltas match the simulator's drained accounting.
        self.drain_per_tx = True
        self.lost_transactions = 0
        #: The events of everything in :meth:`_wait`, in arrival order.
        self._waiting: list[asyncio.Event] = []
        self.transport.on_quiet = self._wake_if_quiet
        self._loop: asyncio.AbstractEventLoop | None = None
        plane = current_plane() or TelemetryPlane(flight_spans=False)
        plane.attach(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._loop is not None

    def up(self) -> None:
        """Start the fleet: transport, actors, then bootstrap."""
        if self._loop is not None:
            return
        self._loop = asyncio.new_event_loop()
        self._loop.run_until_complete(self.supervisor.start())
        # Bootstrap consumes rng_workload draws before the first pick_pair,
        # in the same stream order as the simulator's lazy bootstrap.
        self.bootstrap()

    def down(self) -> None:
        """Stop actors and transport and close the private loop."""
        if self._loop is None:
            return
        self._loop.run_until_complete(self.supervisor.stop())
        self._loop.run_until_complete(self._loop.shutdown_asyncgens())
        self._loop.close()
        self._loop = None

    def __enter__(self) -> "ServeSystem":
        self.up()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.down()

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def run_transaction(
        self, requestor: int | None = None, provider: int | None = None
    ) -> Outcome:
        """Synchronous façade: run one transaction on the private loop."""
        if self._loop is None:
            self.up()
        assert self._loop is not None
        return self._loop.run_until_complete(
            self.run_transaction_async(requestor, provider)
        )

    async def run_transaction_async(
        self, requestor: int | None = None, provider: int | None = None
    ) -> Outcome:
        """One full transaction cycle over the live transport: the shared
        ``begin``/``finish`` around the awaited round trip."""
        tx = self.begin(requestor, provider)
        return self.finish(tx, await self._round_trip(tx))

    def _bootstrap(self, rounds: int) -> None:
        self.maintenance.bootstrap(rounds)
        self.supervisor.checkpoint_all()

    def _maintain(self, requestor: int) -> None:
        self.maintenance.maintain(self.peers[requestor])

    async def _round_trip(self, tx: Ticket) -> Estimate:
        """The operator: query, await the answers, settle, (drain)."""
        t0 = self.engine.now
        blind = self.queries.start(tx.requestor, tx.provider)
        if blind is None:
            await self._await_responses(self.peers[tx.requestor])
        t_query = self.engine.now
        result = self.queries.settle(tx.requestor, tx.provider, blind)
        if self.drain_per_tx:
            await self.drain()
        return Estimate(
            result.estimate,
            self.engine.now - t0,
            result.answered,
            result.asked,
            query_ms=t_query - t0,
        )

    async def _await_responses(self, peer: HiRepPeer) -> None:
        """Sleep until every outstanding request is answered, or nothing is
        left to arrive, or the window for a hung fleet closes."""
        actor = self.supervisor.actors[peer.ip]
        await self._wait(actor.activity, peer.awaiting_responses)

    async def drain(self) -> bool:
        """Await transport quiescence (no frames posted but undelivered).

        Returns True on quiescence, False if :data:`WAIT_WINDOW_MS` elapsed
        first.
        """
        return await self._wait(asyncio.Event(), lambda: True)

    async def _wait(self, event: asyncio.Event, pending: Callable[[], bool]) -> bool:
        """Sleep on ``event`` while ``pending()`` holds and frames are in
        flight; False when :data:`WAIT_WINDOW_MS` runs out first.

        One observation of quiet is enough: the fleet arms no timers, so
        once nothing is in flight nothing more can arrive.  Every handled
        frame pulses its actor's ``activity``, and :meth:`_wake_if_quiet`
        sets every waiting event when the fleet goes quiet.
        """
        deadline = self.engine.now + WAIT_WINDOW_MS
        self._waiting.append(event)
        try:
            while pending() and self.transport.in_flight():
                remaining = deadline - self.engine.now
                if remaining <= 0.0:
                    return False
                event.clear()
                try:
                    await asyncio.wait_for(event.wait(), timeout=remaining / 1000.0)
                except asyncio.TimeoutError:
                    return False
            return True
        finally:
            self._waiting.remove(event)

    def _wake_if_quiet(self) -> None:
        """Set every waiting event once the fleet goes quiet.  On a path
        where every request is answered, the fleet is quiet only after
        each answer has pulsed its requestor already."""
        if self._waiting and self.transport.in_flight() == 0:
            for event in self._waiting:
                event.set()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _telemetry_metrics(self) -> dict[str, float]:
        """The fleet counters, beside what every hiREP executor reports."""
        return {
            **super()._telemetry_metrics(),
            "serve.lost_transactions": self.lost_transactions,
            "serve.actor_restarts": self.supervisor.restarts,
            "serve.crashes_detected": self.supervisor.crashes_detected,
            "serve.frames_posted": self.transport.frames_posted,
            "serve.frames_rejected": self.network.frames_rejected,
            "serve.frames_in_flight": self.transport.in_flight(),
            "serve.bytes_posted": self.transport.bytes_posted,
        }
