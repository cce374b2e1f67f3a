"""The system parameters every experiment starts from.

:func:`default_config` is Table 1; :data:`REDUCED_LISTS` is the smaller
trusted-agent list set the extension experiments use.  A figure's own
knobs (degree, θ, relay count, …) are ``WorkloadSpec`` overrides and
``TopologySpec`` values in its ``plan()`` (:mod:`repro.experiments`), so
examples, tests and benchmarks read one set of defaults.

Scale note: the paper simulates 1000 peers; :func:`default_config` takes a
``network_size`` override because CI-sized runs use a few hundred — the
figure *shapes* are scale-stable, which `tests/integration` asserts.
"""

from __future__ import annotations

from repro.core.config import HiRepConfig

__all__ = [
    "REDUCED_LISTS",
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
