"""Workload generators and per-figure scenario configs."""

from repro.workloads.scenarios import (
    REDUCED_LISTS,
    default_config,
    fig5_config,
    fig6_config,
    fig8_config,
)
from repro.workloads.transactions import (
    FixedRequestorWorkload,
    PooledRequestorWorkload,
    Transaction,
    UniformWorkload,
    Workload,
)

__all__ = [
    "REDUCED_LISTS",
    "default_config",
    "fig5_config",
    "fig6_config",
    "fig8_config",
    "FixedRequestorWorkload",
    "PooledRequestorWorkload",
    "Transaction",
    "UniformWorkload",
    "Workload",
]
