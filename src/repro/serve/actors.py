"""Node actors: one inbox consumer per fleet member.

An actor is deliberately thin — the consumer its node's transport inbox
hands each frame to.  It feeds the frame to the network edge, where the
registered protocol handler (the onion router → dispatcher → peer/agent
stack) does the actual work synchronously.  The inbox drains into it from
one event-loop callback per wake (:class:`~repro.serve.transport._Inbox`),
so a node costs no task, future or coroutine per frame.  All protocol
state mutation therefore happens inside the single event loop, one frame
at a time per node, which is exactly the actor model's serialization
guarantee.

A malformed frame never gets this far: the network edge drops it and
counts it (``ServeNetwork.frames_rejected``).  What ends a drain early is
an exception raised by a protocol handler: the inbox stops there, and
the actor detaches and hands the exception to its
:attr:`~NodeActor.on_failure` hook, as :meth:`~NodeActor.crash` does with
a ``CancelledError``.  The :class:`~repro.serve.supervisor.Supervisor`'s
hook restarts it, recovering agent state from its last checkpoint.
The inbox itself lives in the transport, so frames that arrive while an
actor is down are processed after the restart, in posting order, not lost.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Callable, Optional

from repro.serve.network import ServeNetwork
from repro.serve.transport import Frame, Transport

if TYPE_CHECKING:
    from repro.serve.transport import _Inbox

__all__ = ["NodeActor"]


class NodeActor:
    """Inbox consumer for one node; see the module docstring."""

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
        #: Supervisor hook, called after each handled frame (checkpoints).
        self.on_frame: Optional[Callable[["NodeActor"], None]] = None
        #: Supervisor hook, called with the actor and why it went down —
        #: the handler's exception, or a ``CancelledError`` after
        #: :meth:`crash` — each time it fails (not on :meth:`stop`).
        self.on_failure: Optional[Callable[["NodeActor", BaseException], None]] = None
        self._inbox: Optional[_Inbox] = None

    def start(self) -> None:
        """(Re)attach to the node's inbox; frames already waiting there
        are handled first, in posting order."""
        self._inbox = self.transport.attach(self.ip, self._handle, self._detach)

    def _handle(self, frame: Frame) -> None:
        try:
            # Looked up per frame, not once at start: tracers wrap the class.
            self.network.deliver_frame(frame)
        finally:
            # Wake waiters even when handling raised — the crash is
            # progress too (the supervisor reacts to it).
            self.frames_handled += 1
            self.activity.set()
        if self.on_frame is not None:
            self.on_frame(self)

    def _detach(self, failure: Optional[BaseException]) -> None:
        if self._inbox is not None:
            self._inbox.detach()
            self._inbox = None
            if failure is not None and self.on_failure is not None:
                self.on_failure(self, failure)

    def crash(self) -> None:
        """Take the actor down as a process death would.

        Used by tests and chaos tooling; the supervisor restarts it.
        """
        self._detach(asyncio.CancelledError())

    def stop(self) -> None:
        """Detach for a deliberate shutdown: no failure, no restart."""
        self._detach(None)

    @property
    def alive(self) -> bool:
        return self._inbox is not None
