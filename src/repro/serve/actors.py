"""Node actors: one asyncio task per fleet member.

An actor is deliberately thin — an inbox loop that pulls frames off the
transport and feeds them to the network edge, where the registered
protocol handler (the onion router → dispatcher → peer/agent stack) does
the actual work synchronously.  All protocol state mutation therefore
happens inside the single event loop, one frame at a time per node, which
is exactly the actor model's serialization guarantee.

A malformed frame never gets this far: the network edge drops it and
counts it (``ServeNetwork.frames_rejected``).  What terminates the loop
is an exception raised by a protocol handler, or a cancelled task; the
:class:`~repro.serve.supervisor.Supervisor` notices the dead task and
restarts the actor, recovering agent state from its last checkpoint.  The inbox itself lives in the transport, so frames that
arrive while an actor is down are processed after the restart, not lost.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.serve.network import ServeNetwork
from repro.serve.transport import Transport

__all__ = ["NodeActor"]


class NodeActor:
    """Inbox loop for one node; see the module docstring."""

    def __init__(
        self, ip: int, network: ServeNetwork, transport: Transport
    ) -> None:
        self.ip = ip
        self.network = network
        self.transport = transport
        #: Pulsed after every handled frame; waiters (e.g. the query loop
        #: in ServeSystem) clear-then-await it to sleep until progress.
        self.activity = asyncio.Event()
        self.frames_handled = 0
        self.task: Optional[asyncio.Task[None]] = None
        #: Set before a deliberate shutdown so the supervisor's monitor
        #: does not treat the completed task as a crash.
        self.stopping = False
        #: Supervisor hook, called after each handled frame (checkpoints).
        self.on_frame: Optional[Callable[["NodeActor"], None]] = None

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        """(Re)spawn the inbox task on ``loop``."""
        self.stopping = False
        self.task = loop.create_task(self._run(), name=f"hirep-actor-{self.ip}")

    async def _run(self) -> None:
        while True:
            frame = await self.transport.get(self.ip)
            try:
                self.network.deliver_frame(frame)
            finally:
                # Wake waiters even when handling raised — the crash is
                # progress too (the supervisor reacts to it).
                self.frames_handled += 1
                self.activity.set()
            if self.on_frame is not None:
                self.on_frame(self)

    def crash(self) -> None:
        """Kill the actor task without marking it as a deliberate stop.

        Used by tests and chaos tooling to simulate a process death; the
        supervisor will detect and restart it.
        """
        if self.task is not None:
            self.task.cancel()

    @property
    def alive(self) -> bool:
        return self.task is not None and not self.task.done()
