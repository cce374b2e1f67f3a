"""Network nodes and bandwidth assignment.

Bandwidth matters in hiREP only through the 64 kbps cutoff: "any peer with a
bandwidth greater than 64k can choose to function as a reputation agent"
(§1, §3.2).  The default bandwidth profile follows the classic Gnutella
host-capacity measurements (roughly a third of hosts on sub-64k dialup, the
rest broadband), and is configurable for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "AGENT_BANDWIDTH_CUTOFF_KBPS",
    "BandwidthProfile",
    "DEFAULT_BANDWIDTH_PROFILE",
    "NetNode",
    "assign_bandwidths",
]

#: §1: "Any peer with a bandwidth greater than 64k can choose to function as
#: a reputation agent".
AGENT_BANDWIDTH_CUTOFF_KBPS = 64.0


@dataclass(frozen=True)
class BandwidthProfile:
    """Discrete distribution over access-link speeds (kbps)."""

    speeds_kbps: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.speeds_kbps) != len(self.weights):
            raise ConfigError("speeds and weights must have equal length")
        if not self.speeds_kbps:
            raise ConfigError("bandwidth profile cannot be empty")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ConfigError("weights must be non-negative and sum > 0")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        probs = np.asarray(self.weights, dtype=np.float64)
        probs /= probs.sum()
        return rng.choice(np.asarray(self.speeds_kbps), size=n, p=probs)


#: ~30% of hosts below the 64k agent cutoff, the rest broadband — in line
#: with Gnutella-era host measurements.
DEFAULT_BANDWIDTH_PROFILE = BandwidthProfile(
    speeds_kbps=(28.8, 56.0, 128.0, 512.0, 1500.0, 3000.0),
    weights=(0.10, 0.20, 0.25, 0.20, 0.15, 0.10),
)


@dataclass
class NetNode:
    """One overlay participant at the network layer.

    The network layer knows nothing about reputations; it tracks identity
    (``node_index`` doubles as the simulated IP address), connectivity,
    capacity and liveness.
    """

    node_index: int
    bandwidth_kbps: float
    neighbors: tuple[int, ...] = ()
    online: bool = True

    @property
    def can_be_agent(self) -> bool:
        """Whether this node clears the 64 kbps reputation-agent cutoff."""
        return self.bandwidth_kbps > AGENT_BANDWIDTH_CUTOFF_KBPS


def assign_bandwidths(
    n: int,
    rng: np.random.Generator,
    profile: BandwidthProfile = DEFAULT_BANDWIDTH_PROFILE,
    min_agent_fraction: float = 0.2,
) -> np.ndarray:
    """Sample per-node bandwidths, guaranteeing enough agent-capable nodes.

    If fewer than ``min_agent_fraction`` of nodes clear the 64k cutoff
    (possible for tiny n), random nodes are upgraded so the reputation agent
    community can exist at all.
    """
    if n < 1:
        raise ConfigError(f"need at least one node, got {n}")
    if not 0 <= min_agent_fraction <= 1:
        raise ConfigError(f"min_agent_fraction must be in [0,1], got {min_agent_fraction}")
    bw = profile.sample(rng, n).astype(np.float64)
    need = int(np.ceil(min_agent_fraction * n))
    capable = bw > AGENT_BANDWIDTH_CUTOFF_KBPS
    deficit = need - int(capable.sum())
    if deficit > 0:
        slow = np.nonzero(~capable)[0]
        upgrade = rng.choice(slow, size=min(deficit, slow.size), replace=False)
        bw[upgrade] = 128.0
    return bw
