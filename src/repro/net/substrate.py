"""Per-node state every network shares: bandwidth, the agent cutoff, liveness.

:class:`Substrate` is the one store under all three executors.  The DES
network (:class:`~repro.net.network.P2PNetwork`, and through it the live
plane's ``ServeNetwork``) adds delivery on top of it; the array kernel's
:class:`~repro.vector.network.ArrayNetwork` adds nothing but a first-
departure callback.  State is three vectors over the node index —
``bandwidth`` (kbps), the agent-capable mask and the liveness mask — plus
``alive``, the liveness mask as a read-only memoryview for per-node reads
from outside, and two views of it cached until liveness next changes:
:meth:`online_indices` (an array, for vectorised callers) and
:meth:`online_nodes` (a list of Python ints, for the object kernel, built
only if someone asks — a 10⁵-peer array run never does).

Construction draws from the network RNG stream in one fixed order — the
latency map first (lazy, no draws), then bandwidth assignment — so a world
built over any network leaves every downstream stream untouched: the
foundation of kernel parity.

Every index-taking method raises :class:`~repro.errors.UnknownNodeError`
outside ``[0, n)``.  Negative indices are *not* Python's from-the-end
aliases here: −1 is the sentinel ``agent_ip`` of a forged list entry.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import UnknownNodeError
from repro.net.latency import LatencyMap, LatencyModel, UniformLatency
from repro.net.node import (
    AGENT_BANDWIDTH_CUTOFF_KBPS,
    BandwidthProfile,
    DEFAULT_BANDWIDTH_PROFILE,
    NetNode,
    assign_bandwidths,
)
from repro.net.topology import Topology
from repro.sim.metrics import MessageCounter

__all__ = ["Substrate"]


class Substrate:
    """Bandwidth vector + agent-capable mask + liveness mask over a topology."""

    #: The hiREP executor whose network this is, as
    #: :data:`~repro.core.registry.CAPABILITIES` names it; None where the
    #: table refuses nothing (the simulator's network).
    executor: str | None = None

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        *,
        latency_model: LatencyModel | None = None,
        bandwidth_profile: BandwidthProfile = DEFAULT_BANDWIDTH_PROFILE,
        model_transmission: bool = True,
    ) -> None:
        self.topology = topology
        self.n = topology.n
        self.rng = rng
        self.latency_model = latency_model or UniformLatency()
        self.latency = LatencyMap(self.latency_model, rng)
        self.counter = MessageCounter()
        self.model_transmission = model_transmission
        self.bandwidth = assign_bandwidths(self.n, rng, bandwidth_profile)
        self._capable = self.bandwidth > AGENT_BANDWIDTH_CUTOFF_KBPS
        self._online = np.ones(self.n, dtype=bool)
        # Scalar reads go through memoryviews of the two vectors: the same
        # buffers, but indexing yields a Python bool / float — no numpy
        # scalar can leak into an event time or the wire codec — for less
        # than ``ndarray.item`` costs on the per-message path.
        #: Liveness by node index, read-only: ``alive[i]`` is a Python bool
        #: and follows every flip.  A plain attribute, not a property — it
        #: is read on every hop; index it only with a validated node.
        self.alive = memoryview(self._online).toreadonly()
        self._kbps = memoryview(self.bandwidth)
        self._offline_count = 0
        self._online_idx: np.ndarray | None = None
        self._online_list: list[int] | None = None

    # -- introspection -------------------------------------------------------

    @property
    def online_mask(self) -> np.ndarray:
        """Boolean liveness mask over all nodes (do not mutate directly)."""
        return self._online

    @property
    def any_offline(self) -> bool:
        return self._offline_count > 0

    def online_indices(self) -> np.ndarray:
        """Indices of online nodes, ascending (cached until liveness changes)."""
        if self._online_idx is None:
            self._online_idx = np.flatnonzero(self._online)
        return self._online_idx

    def online_nodes(self) -> list[int]:
        """:meth:`online_indices` as Python ints — the same list object
        until liveness changes, then a new one; callers must not mutate it."""
        if self._online_list is None:
            self._online_list = self.online_indices().tolist()
        return self._online_list

    def agent_capable_nodes(self) -> list[int]:
        """Indices of online nodes clearing the 64 kbps agent cutoff."""
        return np.flatnonzero(self._online & self._capable).tolist()

    def is_online(self, index: int) -> bool:
        if not 0 <= index < self.n:
            raise UnknownNodeError(index)
        return self.alive[index]

    def node(self, index: int) -> NetNode:
        """One node's state as a :class:`NetNode` snapshot, built on demand."""
        return NetNode(
            node_index=index,
            online=self.is_online(index),
            bandwidth_kbps=self._kbps[index],
            neighbors=self.topology.neighbors(index),
        )

    @staticmethod
    def transmission_ms(bandwidth_kbps: float, size_bytes: int) -> float:
        """Serialization time of ``size_bytes`` on a ``bandwidth_kbps`` link."""
        return (size_bytes * 8.0) / bandwidth_kbps  # bits / (kbit/s) = ms

    # -- liveness ------------------------------------------------------------

    def set_online(self, index: int, online: bool) -> None:
        online = bool(online)
        if self.is_online(index) == online:
            return
        if not online:
            self._departing((index,))
        self._online[index] = online
        self._liveness_changed(1 if online else -1)

    def apply_churn(
        self,
        draws: np.ndarray,
        leave_prob: float,
        rejoin_prob: float,
        skip: Iterable[int],
    ) -> tuple[int, int]:
        """One churn round over a per-node uniform draw vector.

        An online node departs when its draw < ``leave_prob``, an offline
        node rejoins when its draw < ``rejoin_prob``; nodes in ``skip`` keep
        their state.  Returns ``(departures, rejoins)``.
        """
        online = self._online
        leave = draws < leave_prob
        leave &= online
        join = draws < rejoin_prob
        join &= ~online
        skip = [i for i in skip if 0 <= i < self.n]
        leave[skip] = False
        join[skip] = False
        departures = int(np.count_nonzero(leave))
        rejoins = int(np.count_nonzero(join))
        if departures:
            self._departing(np.flatnonzero(leave).tolist())
        if departures or rejoins:
            # No node is in both, so one flip of their union moves them all.
            leave |= join
            np.logical_xor(online, leave, out=online)
            self._liveness_changed(rejoins - departures)
        return departures, rejoins

    def _liveness_changed(self, net_joined: int) -> None:
        self._offline_count -= net_joined
        self._online_idx = None
        self._online_list = None

    def _departing(self, nodes: Iterable[int]) -> None:
        """Hook: ``nodes`` are about to go offline (the mask flips next).
        A subclass releases whatever it holds for them; nothing here."""
