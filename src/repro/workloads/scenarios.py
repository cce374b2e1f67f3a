"""Pre-built configurations for every reproduced figure.

Each builder returns the :class:`~repro.core.config.HiRepConfig` the
corresponding experiment runs with.  Experiment-visible knobs (transaction
counts, sweep values) live in :mod:`repro.experiments`; this module pins the
*system* parameters so examples, tests and benchmarks agree on them.

Scale note: the paper simulates 1000 peers; the builders accept a
``network_size`` override because CI-sized runs use a few hundred — the
figure *shapes* are scale-stable, which `tests/integration` asserts.
"""

from __future__ import annotations

from repro.core.config import HiRepConfig

__all__ = [
    "REDUCED_LISTS",
    "fig5_config",
    "fig6_config",
    "fig8_config",
    "default_config",
]

#: The reduced trusted-agent lists the extension experiments (robustness,
#: ablations, baselines, degradation, churn) run with in place of Table 1's
#: list sizes.  Experiments that also cut the token budget add ``tokens``.
REDUCED_LISTS = {
    "trusted_agents": 20,
    "refill_threshold": 12,
    "agents_queried": 8,
    "onion_relays": 3,
}


def default_config(network_size: int = 1000, seed: int = 2006) -> HiRepConfig:
    """Table 1 defaults."""
    return HiRepConfig(network_size=network_size, seed=seed)


def fig5_config(
    avg_neighbors: float, network_size: int = 1000, seed: int = 2006
) -> HiRepConfig:
    """Fig. 5: traffic cost; voting degree swept over {2, 3, 4}.

    hiREP's traffic depends only on (agents queried × onion length), so a
    single hiREP curve is produced with the defaults.
    """
    return HiRepConfig(
        network_size=network_size,
        avg_neighbors=avg_neighbors,
        seed=seed,
    )


def fig6_config(
    eviction_threshold: float, network_size: int = 1000, seed: int = 2006
) -> HiRepConfig:
    """Fig. 6: accuracy vs transactions; hirep-4/6/8 ⇒ θ ∈ {0.4, 0.6, 0.8},
    10% malicious."""
    return HiRepConfig(
        network_size=network_size,
        eviction_threshold=eviction_threshold,
        poor_agent_fraction=0.10,
        malicious_fraction=0.10,
        seed=seed,
    )


def fig8_config(
    onion_relays: int, network_size: int = 1000, seed: int = 2006
) -> HiRepConfig:
    """Fig. 8: response time; hirep-10/7/5 ⇒ relays ∈ {10, 7, 5}."""
    return HiRepConfig(
        network_size=network_size,
        onion_relays=onion_relays,
        seed=seed,
    )
