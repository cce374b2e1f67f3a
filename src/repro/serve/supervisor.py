"""Fleet supervision: bring-up, crash detection, restart with recovery.

The supervisor owns one :class:`~repro.serve.actors.NodeActor` per node.
An actor that goes down without being asked to stop — a crash — calls
the supervisor's failure hook, which records the incident and queues the
restart on the event loop's next turn (``loop.call_soon``): nothing
polls.  For nodes hosting a reputation agent, restart means *state
recovery*: the agent's durable state (public-key list, report log,
replay nonces, stats, trust model) is restored from the most recent
checkpoint, then the actor re-attaches to the same transport inbox, so
frames that arrived while the node was down are processed instead of
lost.

Checkpoints are taken at bring-up, after bootstrap, and every
``checkpoint_every`` frames an agent-hosting actor handles — the classic
write-ahead tradeoff in miniature: smaller intervals lose less state on a
crash, cost more copying in steady state.  What grows with an agent's
history, its report log and replay nonces, is only ever appended to, so a
checkpoint records how long they were instead of copying them, and a
restore cuts them back.
"""

from __future__ import annotations

import asyncio
import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.agent import ReputationAgent
from repro.serve.actors import NodeActor
from repro.serve.network import ServeNetwork
from repro.serve.transport import Transport

if TYPE_CHECKING:
    from repro.core.services import Wiring

__all__ = ["AgentCheckpoint", "Supervisor"]


@dataclass
class AgentCheckpoint:
    """One agent's durable state at a point in time.

    ``ReputationAgent.handle_report`` only appends to the report log and
    to its journal of accepted nonces (nonce -> subject, in order), and
    nothing else writes either.  So the checkpoint holds the agent's own
    two containers and their lengths — the history up to the checkpoint
    is their first ``reports`` appends, over the first ``subjects``
    subjects — and :meth:`rewound` cuts them back.  The rest is copied.
    """

    public_key_list: dict = field(repr=False)
    report_log: dict = field(repr=False)
    seen_report_nonces: dict = field(repr=False)
    reports: int
    subjects: int
    stats: Any = field(repr=False)
    model: Any = field(repr=False)

    def rewound(self) -> tuple[dict, dict]:
        """The report log and nonce journal as they stood at the
        checkpoint, cut back in place: each later nonce drops the outcome
        it appended, newest first, then the subjects first logged after
        the checkpoint, left empty, go."""
        log, journal = self.report_log, self.seen_report_nonces
        while len(journal) > self.reports:
            log[journal.popitem()[1]].pop()
        while len(log) > self.subjects:
            log.popitem()
        return log, journal


def _checkpoint_of(agent: ReputationAgent) -> AgentCheckpoint:
    return AgentCheckpoint(
        public_key_list=dict(agent.public_key_list),
        report_log=agent.report_log,
        seen_report_nonces=agent._seen_report_nonces,
        reports=len(agent._seen_report_nonces),
        subjects=len(agent.report_log),
        stats=copy.copy(agent.stats),
        model=copy.deepcopy(agent.model),
    )


def _blank_like(agent: ReputationAgent, model: Any) -> ReputationAgent:
    """A fresh agent on ``agent``'s node, keys, backend, stream and oracle,
    with its own copy of ``model`` and no history."""
    return ReputationAgent(
        ip=agent.ip,
        keys=agent.keys,
        backend=agent.backend,
        model=copy.deepcopy(model),
        rng=agent.rng,
        truth_oracle=agent.truth_oracle,
    )


class Supervisor:
    """Start the actor fleet and heal its crashes; see the module docstring."""

    def __init__(
        self,
        wiring: "Wiring",
        network: ServeNetwork,
        transport: Transport,
        *,
        checkpoint_every: int = 32,
    ) -> None:
        self.wiring = wiring
        self.network = network
        self.transport = transport
        self.checkpoint_every = max(1, checkpoint_every)
        self.actors: dict[int, NodeActor] = {}
        self.checkpoints: dict[int, AgentCheckpoint] = {}
        self.crashes_detected = 0
        self.restarts = 0
        #: (ip, reason) tuples, for telemetry and tests.
        self.incidents: list[tuple[int, str]] = []
        #: The fleet's loop while it runs; restarts are queued on it.
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bring up the transport and one actor per node."""
        self._loop = asyncio.get_running_loop()
        node_ids = list(range(self.network.n))
        await self.transport.start(node_ids)
        for ip in node_ids:
            actor = NodeActor(ip, self.network, self.transport)
            if ip in self.wiring.agents:
                actor.on_frame = self._on_agent_frame
            actor.on_failure = self._on_failure
            self.actors[ip] = actor
            actor.start()
        self.checkpoint_all()

    async def stop(self) -> None:
        """Deliberate shutdown: no restarts, detach every actor, stop transport."""
        self._loop = None
        for actor in self.actors.values():
            actor.stop()
        await self.transport.stop()

    # -- checkpoints ---------------------------------------------------------

    def checkpoint_agent(self, ip: int) -> None:
        agent = self.wiring.agents.get(ip)
        if agent is not None:
            self.checkpoints[ip] = _checkpoint_of(agent)

    def checkpoint_all(self) -> None:
        for ip in self.wiring.agents:
            self.checkpoint_agent(ip)

    def _on_agent_frame(self, actor: NodeActor) -> None:
        if actor.frames_handled % self.checkpoint_every == 0:
            self.checkpoint_agent(actor.ip)

    def restore_agent(self, ip: int) -> bool:
        """Rebuild the agent at ``ip`` from its last checkpoint.

        The wiring's dispatch closures look the agent up at call time, so
        installing the restored instance in ``wiring.agents`` is all the
        rerouting needed.  Returns False when the node hosts no agent.
        """
        snapshot = self.checkpoints.get(ip)
        crashed = self.wiring.agents.get(ip)
        if snapshot is None or crashed is None:
            return False
        restored = _blank_like(crashed, snapshot.model)
        restored.public_key_list = dict(snapshot.public_key_list)
        # The crashed instance is done with them: the restored one carries
        # on appending, so the checkpoint's lengths stay its history.
        restored.report_log, restored._seen_report_nonces = snapshot.rewound()
        restored.stats = copy.copy(snapshot.stats)
        self.wiring.agents[ip] = restored
        return True

    # -- chaos + recovery ----------------------------------------------------

    def kill(self, ip: int, *, amnesia: bool = True) -> None:
        """Simulate a crash of node ``ip``'s actor.

        With ``amnesia`` (the default) the hosted agent's in-memory state
        is wiped too — the honest model of a process death — so the only
        road back is the supervisor's checkpoint.
        """
        self.actors[ip].crash()
        agent = self.wiring.agents.get(ip)
        if amnesia and agent is not None:
            self.wiring.agents[ip] = _blank_like(agent, agent.model)

    def _on_failure(self, actor: NodeActor, failure: BaseException) -> None:
        """Record the crash and queue the restart for the loop's next turn:
        after the caller is done (``kill`` installs its blank agent first)."""
        cancelled = isinstance(failure, asyncio.CancelledError)
        reason = "cancelled" if cancelled else type(failure).__name__
        self.crashes_detected += 1
        self.incidents.append((actor.ip, reason))
        if self._loop is not None:
            self._loop.call_soon(self._restart, actor)

    def _restart(self, actor: NodeActor) -> None:
        if self._loop is None:  # the fleet stopped meanwhile
            return
        self.restore_agent(actor.ip)
        actor.start()
        self.restarts += 1
