"""hiREP configuration — the paper's Table 1 plus protocol constants.

The scanned Table 1 is partially garbled; values marked *reconstructed* were
recovered from the prose and figure captions (the reconstruction rationale
is tabulated in DESIGN.md).  Everything is exposed as one frozen dataclass
so experiments can declare exactly which knob they sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

from repro.errors import ConfigError

__all__ = ["HiRepConfig", "DEFAULT_CONFIG", "TABLE1_ROWS"]


@dataclass(frozen=True)
class HiRepConfig:
    """All simulation and protocol parameters.

    Attributes mirror Table 1 where applicable; additional attributes cover
    protocol details the paper fixes in prose (§3.4–3.5).
    """

    # --- Table 1 -----------------------------------------------------------
    network_size: int = 1000
    """Number of peers in the network (Table 1; *reconstructed*)."""

    avg_neighbors: float = 4.0
    """Average number of overlay neighbours per peer (Fig. 5 sweeps 2/3/4)."""

    good_rating: tuple[float, float] = (0.6, 1.0)
    """Scope of a *good* reputation rating (§5.2)."""

    bad_rating: tuple[float, float] = (0.0, 0.4)
    """Scope of a *bad* reputation rating (§5.2)."""

    onion_relays: int = 5
    """Relays a peer includes in its onion (Fig. 8 sweeps 5/7/10)."""

    trusted_agents: int = 60
    """Capacity of a peer's trusted-agent list (Table 1 default 60)."""

    poor_agent_fraction: float = 0.10
    """Fraction of reputation agents that evaluate inconsistently (Table 1)."""

    ttl: int = 4
    """Flood TTL for voting baseline and agent discovery (§5.3: 4 in sim)."""

    tokens: int = 10
    """Initial tokens on an agent-list request (Table 1)."""

    # --- protocol constants from prose --------------------------------------
    agents_queried: int = 10
    """Trusted agents contacted per trust-value query (*reconstructed*; the
    traffic bound is O(C) in this count — Fig. 5's 'hirep' curve requires a
    small C for 'less than half of voting-2' to hold)."""

    refill_threshold: int = 50
    """Probe backups / rediscover when the list drops below this (§3.4.3
    'some threshold, say 50')."""

    expertise_alpha: float = 0.5
    """EWMA factor α in accuracy = α·A_c + (1-α)·A_p, α ∈ (0, 1) (§3.4.3)."""

    eviction_threshold: float = 0.4
    """Evict agents whose expertise falls below this (Fig. 6: hirep-4/6/8 ⇒
    0.4 / 0.6 / 0.8)."""

    initial_expertise: float = 1.0
    """Expertise assigned to a freshly selected agent (§3.4.3)."""

    backup_cache_size: int = 30
    """Most-recently-first backup agent cache capacity (§3.4.3)."""

    malicious_fraction: float = 0.10
    """Fraction of *peers* voting maliciously in the voting baseline
    (Figs. 6–7 assume 10% by default)."""

    untrusted_peer_fraction: float = 0.5
    """Fraction of peers whose true trust value is 0 (§5.2: random)."""

    # --- timeout / retry / backoff (robustness extension) --------------------
    query_timeout_ms: float | None = None
    """Deadline for one trust-query attempt.  ``None`` (default) disables
    the whole timeout/retry plane and reproduces the paper runs bit for
    bit; set it (e.g. 3000.0) to notice unanswered agents and retry."""

    max_query_retries: int = 2
    """Retry rounds for agents that miss a query deadline (0 = give up
    after the first timeout).  Only active when ``query_timeout_ms`` is
    set."""

    agent_miss_limit: int = 3
    """Park an agent in the backup cache after this many *consecutive*
    queries it failed to answer (0 = never park on misses).  Only active
    when ``query_timeout_ms`` is set."""

    # --- engineering knobs ---------------------------------------------------
    crypto_backend: str = "simulated"
    """'simulated' for sweeps, 'rsa' for full-crypto runs."""

    seed: int = 2006
    """Master RNG seed."""

    topology_kind: str = "power_law"
    """Topology generator (power_law reproduces BRITE's Barabási model)."""

    model_transmission: bool = True
    """Model FIFO serialization on access links (needed for Fig. 8)."""

    def __post_init__(self) -> None:
        if self.network_size < 10:
            raise ConfigError(f"network_size must be >= 10, got {self.network_size}")
        if self.avg_neighbors < 1:
            raise ConfigError(f"avg_neighbors must be >= 1, got {self.avg_neighbors}")
        for name in ("good_rating", "bad_rating"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise ConfigError(f"{name} must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})")
        if self.onion_relays < 0:
            raise ConfigError(f"onion_relays must be >= 0, got {self.onion_relays}")
        if self.trusted_agents < 1:
            raise ConfigError(f"trusted_agents must be >= 1, got {self.trusted_agents}")
        if not 0.0 <= self.poor_agent_fraction <= 1.0:
            raise ConfigError(
                f"poor_agent_fraction must be in [0,1], got {self.poor_agent_fraction}"
            )
        if self.ttl < 0:
            raise ConfigError(f"ttl must be >= 0, got {self.ttl}")
        if self.tokens < 1:
            raise ConfigError(f"tokens must be >= 1, got {self.tokens}")
        if self.agents_queried < 1:
            raise ConfigError(f"agents_queried must be >= 1, got {self.agents_queried}")
        if not 0.0 < self.expertise_alpha < 1.0:
            raise ConfigError(
                f"expertise_alpha must be in (0,1), got {self.expertise_alpha}"
            )
        if not 0.0 <= self.eviction_threshold <= 1.0:
            raise ConfigError(
                f"eviction_threshold must be in [0,1], got {self.eviction_threshold}"
            )
        if not 0.0 <= self.malicious_fraction <= 1.0:
            raise ConfigError(
                f"malicious_fraction must be in [0,1], got {self.malicious_fraction}"
            )
        if not 0.0 <= self.untrusted_peer_fraction <= 1.0:
            raise ConfigError(
                f"untrusted_peer_fraction must be in [0,1], got {self.untrusted_peer_fraction}"
            )
        if self.query_timeout_ms is not None and self.query_timeout_ms <= 0:
            raise ConfigError(
                f"query_timeout_ms must be > 0 (or None), got {self.query_timeout_ms}"
            )
        if self.max_query_retries < 0:
            raise ConfigError(
                f"max_query_retries must be >= 0, got {self.max_query_retries}"
            )
        if self.agent_miss_limit < 0:
            raise ConfigError(
                f"agent_miss_limit must be >= 0, got {self.agent_miss_limit}"
            )
        if self.crypto_backend not in ("simulated", "rsa"):
            raise ConfigError(f"unknown crypto_backend {self.crypto_backend!r}")
        if self.backup_cache_size < 0:
            raise ConfigError(f"backup_cache_size must be >= 0, got {self.backup_cache_size}")

    def with_(self, **overrides: Any) -> "HiRepConfig":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **overrides)

    def as_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_CONFIG = HiRepConfig()

#: Table 1 rendered as (name, default, description, provenance) rows — the
#: ``table1`` experiment prints these.
TABLE1_ROWS: list[tuple[str, str, str, str]] = [
    ("Network size", "1000", "Number of peers in the network", "reconstructed"),
    ("Neighbors per node", "4", "Average number of neighbors each peer", "reconstructed (Fig. 5 sweeps 2/3/4)"),
    ("Good rating", "[0.6, 1.0]", "Scope of good reputation rating", "paper §5.2"),
    ("Bad rating", "[0.0, 0.4]", "Scope of bad reputation rating", "paper §5.2"),
    ("Relays per onion", "5", "Agencies a peer includes in its onion", "reconstructed (Fig. 8 sweeps 5/7/10)"),
    ("Trusted agents", "60", "Amount of trusted agents on a peer's list", "paper Table 1"),
    ("Poor performance agents", "10%", "Agents which cannot make proper evaluations", "paper Table 1"),
    ("TTL", "4", "TTL limit used in pure voting flooding", "paper Table 1"),
    ("Token number", "10", "Initial tokens for obtaining agent lists", "paper Table 1"),
]
