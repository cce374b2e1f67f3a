"""The trusted-agent list and backup cache one peer maintains (§3.4).

Each entry is the paper's ``{weight, agent nodeID, Onion_agent, SP_e}``
augmented with the peer-local expertise tracker.  Maintenance rules
(§3.4.3):

* a freshly selected agent starts with expertise 1;
* expertise is EWMA-updated after every transaction;
* an **offline** agent with positive expertise moves to the backup cache
  (most-recently-first, bounded); otherwise it is removed outright;
* an agent whose expertise drops below the eviction threshold θ is removed
  (the hirep-θ rule of Fig. 6);
* when the list shrinks below the refill threshold the peer first probes
  its backups, then runs discovery for new agents.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.expertise import ExpertiseTracker
from repro.core.messages import AgentListEntry
from repro.core.semantics import selection_order
from repro.crypto.hashing import NodeID
from repro.errors import ConfigError
from repro.onion.onion import Onion

__all__ = ["TrustedAgent", "TrustedAgentList"]


@dataclass
class TrustedAgent:
    """One live row of the trusted-agent list."""

    entry: AgentListEntry
    expertise: ExpertiseTracker
    #: Consecutive trust queries this agent failed to answer in time
    #: (reset on every accepted response; see HiRepConfig.agent_miss_limit).
    misses: int = 0

    @property
    def node_id(self) -> NodeID:
        return self.entry.agent_node_id

    @property
    def weight(self) -> float:
        """The weight shared with other peers is the tracked expertise."""
        return self.expertise.value

    def refresh_onion(self, onion: Onion) -> None:
        """Adopt a fresher onion (higher sequence number) for this agent."""
        current = self.entry.agent_onion
        if current is None or onion.seq >= current.seq:
            self.entry = AgentListEntry(
                weight=self.entry.weight,
                agent_node_id=self.entry.agent_node_id,
                agent_onion=onion,
                agent_sp=self.entry.agent_sp,
                agent_ip=self.entry.agent_ip,
            )


class TrustedAgentList:
    """A peer's trusted agents plus its backup cache."""

    def __init__(
        self,
        capacity: int,
        alpha: float,
        eviction_threshold: float,
        backup_capacity: int,
        initial_expertise: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        if backup_capacity < 0:
            raise ConfigError(f"backup_capacity must be >= 0, got {backup_capacity}")
        self.capacity = capacity
        self.alpha = alpha
        self.eviction_threshold = eviction_threshold
        self.backup_capacity = backup_capacity
        self.initial_expertise = initial_expertise
        self._agents: dict[NodeID, TrustedAgent] = {}
        # Most-recently-parked first.
        self._backup: OrderedDict[NodeID, TrustedAgent] = OrderedDict()
        self.evictions = 0
        self.backups_parked = 0
        self.backups_restored = 0

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._agents)

    def __contains__(self, node_id: NodeID) -> bool:
        return node_id in self._agents

    def get(self, node_id: NodeID) -> TrustedAgent | None:
        return self._agents.get(node_id)

    def agents(self) -> list[TrustedAgent]:
        return list(self._agents.values())

    def backup_agents(self) -> list[TrustedAgent]:
        return list(self._backup.values())

    @property
    def has_room(self) -> bool:
        return len(self._agents) < self.capacity

    def needs_refill(self, threshold: int) -> bool:
        return len(self._agents) < threshold

    # -- mutation ------------------------------------------------------------

    def add(self, entry: AgentListEntry, expertise: float | None = None) -> bool:
        """Insert an agent; returns False when already present or full."""
        if entry.agent_node_id in self._agents:
            return False
        if len(self._agents) >= self.capacity:
            return False
        self._agents[entry.agent_node_id] = TrustedAgent(
            entry=entry,
            expertise=ExpertiseTracker(
                alpha=self.alpha,
                value=self.initial_expertise if expertise is None else expertise,
            ),
        )
        # A re-added agent must not linger in backup.
        self._backup.pop(entry.agent_node_id, None)
        return True

    def remove(self, node_id: NodeID) -> TrustedAgent | None:
        return self._agents.pop(node_id, None)

    def update_expertise(self, node_id: NodeID, evaluation: float, outcome: float) -> float | None:
        """EWMA-update one agent; returns the new expertise (None if absent)."""
        agent = self._agents.get(node_id)
        if agent is None:
            return None
        return agent.expertise.update(evaluation, outcome)

    def evict_below_threshold(self) -> list[TrustedAgent]:
        """Apply the hirep-θ rule; returns the evicted agents."""
        victims = [
            a for a in self._agents.values()
            if a.expertise.below(self.eviction_threshold)
        ]
        for agent in victims:
            del self._agents[agent.node_id]
            self.evictions += 1
        return victims

    def record_miss(self, node_id: NodeID) -> int | None:
        """One more consecutive unanswered query; returns the new count."""
        agent = self._agents.get(node_id)
        if agent is None:
            return None
        agent.misses += 1
        return agent.misses

    def record_answer(self, node_id: NodeID) -> None:
        """The agent answered: its consecutive-miss streak resets."""
        agent = self._agents.get(node_id)
        if agent is not None:
            agent.misses = 0

    def park_offline(self, node_id: NodeID) -> bool:
        """§3.4.3: offline agent with positive accuracy → backup cache.

        Returns True when parked, False when removed outright (non-positive
        expertise) or unknown.
        """
        agent = self._agents.pop(node_id, None)
        if agent is None:
            return False
        if agent.expertise.value <= 0.0 or self.backup_capacity == 0:
            return False
        # Most-recently-first: new arrivals go to the front.
        self._backup[node_id] = agent
        self._backup.move_to_end(node_id, last=False)
        while len(self._backup) > self.backup_capacity:
            self._backup.popitem(last=True)
        self.backups_parked += 1
        return True

    def restore_from_backup(self, node_id: NodeID) -> bool:
        """Probe succeeded: move a backup agent back to the live list."""
        agent = self._backup.pop(node_id, None)
        if agent is None or len(self._agents) >= self.capacity:
            if agent is not None:
                self._backup[node_id] = agent  # put it back, list is full
            return False
        agent.misses = 0  # clean slate: it just proved it is back
        self._agents[node_id] = agent
        self.backups_restored += 1
        return True

    def drop_backup(self, node_id: NodeID) -> None:
        self._backup.pop(node_id, None)

    # -- sharing and selection -------------------------------------------------

    def columns(self) -> tuple[list[NodeID], list[float]]:
        """The list as an agent-list reply shares it, as columns in row
        order: agent nodeIDs and weights (= tracked expertise)."""
        return list(self._agents), [
            agent.expertise.value for agent in self._agents.values()
        ]

    def shared_entry(self, node_id: NodeID) -> AgentListEntry:
        """The reply entry for one listed agent, weight = expertise."""
        agent = self._agents[node_id]
        return AgentListEntry(
            weight=agent.expertise.value,
            agent_node_id=agent.entry.agent_node_id,
            agent_onion=agent.entry.agent_onion,
            agent_sp=agent.entry.agent_sp,
            agent_ip=agent.entry.agent_ip,
        )

    def select_for_query(
        self, count: int, rng: np.random.Generator
    ) -> list[TrustedAgent]:
        """The ``count`` agents to consult.

        Ordered by expertise, then track record (a proven agent beats an
        unproven one at equal expertise), then randomly — so fresh lists
        explore while trained lists stick to their proven good agents.
        """
        agents = self.agents()
        if not agents:
            return []
        values = np.array([a.expertise.value for a in agents], dtype=np.float64)
        updates = np.array([a.expertise.updates for a in agents], dtype=np.int64)
        order = selection_order(values, updates, rng)
        return [agents[int(i)] for i in order[:count]]
