"""Workload generators and the default experiment config."""

from repro.workloads.scenarios import REDUCED_LISTS, default_config
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
    "FixedRequestorWorkload",
    "PooledRequestorWorkload",
    "Transaction",
    "UniformWorkload",
    "Workload",
]
