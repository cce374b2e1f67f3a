"""The shared simulation substrate ("world") a reputation system runs in.

Fig. 5–8 compare hiREP against the pure-voting baseline *on the same
network*: same topology, same ground truth, same latencies, same maliciousness
assignment.  :class:`World` packages that substrate so every system built
from the same config (and seed) sees a bit-identical environment — the
baseline comparison then measures the reputation system, not the luck of
the topology draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import HiRepConfig
from repro.core.trust_models import QualityDrivenModel, TrustModel
from repro.net.latency import LatencyModel
from repro.net.network import P2PNetwork
from repro.net.substrate import Substrate
from repro.net.topology import Topology, topology_for_degree
from repro.sim.rng import make_rng, spawn

__all__ = ["ModelFactory", "World"]

#: (good, rng) -> TrustModel — per-agent trust-model override.
ModelFactory = Callable[[bool, np.random.Generator], TrustModel]


@dataclass
class World:
    """Topology + network + ground truth + derived RNG streams."""

    config: HiRepConfig
    topology: Topology
    network: Substrate
    truth: np.ndarray
    malicious_peer: np.ndarray
    rng_keys: np.random.Generator = field(repr=False, default=None)
    rng_agents: np.random.Generator = field(repr=False, default=None)
    rng_workload: np.random.Generator = field(repr=False, default=None)
    rng_peers: np.random.Generator = field(repr=False, default=None)

    @classmethod
    def from_config(
        cls,
        config: HiRepConfig,
        latency_model: LatencyModel | None = None,
        topology: Topology | None = None,
        network_factory: "Callable[..., Substrate] | None" = None,
    ) -> "World":
        """Deterministically derive the full substrate from the config seed.

        ``topology`` overrides generation; its node count must match
        ``config.network_size``.  All other draws (truth, bandwidth,
        maliciousness) still come from the seed, so two worlds with the
        same config and topology are identical.

        ``network_factory`` substitutes the network implementation — it is
        called exactly like the :class:`~repro.net.network.P2PNetwork`
        constructor, with the same RNG stream, so any
        :class:`~repro.net.substrate.Substrate` (the live-transport network
        in ``repro.serve``, the array kernel's delivery-free
        ``ArrayNetwork``) consumes identical draws and the rest of the
        world stays bit-identical.
        """
        master = make_rng(config.seed)
        (
            rng_topology,
            rng_net,
            rng_keys,
            rng_truth,
            rng_agents,
            rng_workload,
            rng_peers,
        ) = spawn(master, 7)
        if topology is None:
            topology = topology_for_degree(
                config.topology_kind,
                config.network_size,
                config.avg_neighbors,
                rng_topology,
            )
        elif topology.n != config.network_size:
            from repro.errors import ConfigError

            raise ConfigError(
                f"supplied topology has {topology.n} nodes but config says "
                f"{config.network_size}"
            )
        make_network = network_factory if network_factory is not None else P2PNetwork
        network = make_network(
            topology,
            rng_net,
            latency_model=latency_model,
            model_transmission=config.model_transmission,
        )
        truth = (
            rng_truth.random(config.network_size) >= config.untrusted_peer_fraction
        ).astype(np.float64)
        # Maliciously *voting* peers (Figs. 6–7's attackers in the voting
        # baseline); drawn from the same stream so both systems agree on
        # who misbehaves.
        malicious_peer = rng_truth.random(config.network_size) < config.malicious_fraction
        return cls(
            config=config,
            topology=topology,
            network=network,
            truth=truth,
            malicious_peer=malicious_peer,
            rng_keys=rng_keys,
            rng_agents=rng_agents,
            rng_workload=rng_workload,
            rng_peers=rng_peers,
        )

    @property
    def n(self) -> int:
        return self.config.network_size

    def draw_agents(
        self, model_factory: ModelFactory | None = None
    ) -> list[tuple[int, bool, np.random.Generator, TrustModel]]:
        """The §5.2 reputation-agent population, drawn from ``rng_agents``.

        One ``(ip, good, stream, model)`` per agent-capable node: the poor
        subset is chosen first, then one stream per agent is spawned, then
        ``model_factory(good, stream)`` (default: the paper's
        quality-driven model) is called in node order.  The default model
        keeps no state, so all good agents share one instance and all poor
        agents another.  Every hiREP executor builds its agents from this
        one draw, which is what keeps their populations identical for a
        given config.
        """
        cfg = self.config
        shared = {
            good: QualityDrivenModel(good, cfg.good_rating, cfg.bad_rating)
            for good in (False, True)
        }
        factory = model_factory or (lambda good, rng: shared[good])
        capable = self.network.agent_capable_nodes()
        poor_count = int(round(cfg.poor_agent_fraction * len(capable)))
        poor_set = set(
            int(i)
            for i in self.rng_agents.choice(
                capable, size=min(poor_count, len(capable)), replace=False
            )
        )
        return [
            (ip, (good := ip not in poor_set), rng, factory(good, rng))
            for ip, rng in zip(capable, spawn(self.rng_agents, len(capable)))
        ]
