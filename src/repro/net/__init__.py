"""Unstructured P2P network substrate."""

from repro.net.churn import ChurnModel, ChurnStats
from repro.net.faults import (
    Bisection,
    CrashSchedule,
    CrashWindow,
    FaultModel,
    FaultPlane,
    FaultStats,
    FaultVerdict,
    LatencySpike,
    MessageLoss,
)
from repro.net.flooding import FloodResult, flood_bfs
from repro.net.latency import (
    ConstantLatency,
    LatencyMap,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)
from repro.net.messages import Category, NetMessage
from repro.net.network import P2PNetwork
from repro.net.node import (
    AGENT_BANDWIDTH_CUTOFF_KBPS,
    BandwidthProfile,
    DEFAULT_BANDWIDTH_PROFILE,
    NetNode,
    assign_bandwidths,
)
from repro.net.substrate import Substrate
from repro.net.topology import (
    Topology,
    power_law_topology,
    random_topology,
    ring_lattice,
    small_world_topology,
    topology_for_degree,
)

__all__ = [
    "ChurnModel",
    "ChurnStats",
    "Bisection",
    "CrashSchedule",
    "CrashWindow",
    "FaultModel",
    "FaultPlane",
    "FaultStats",
    "FaultVerdict",
    "LatencySpike",
    "MessageLoss",
    "FloodResult",
    "flood_bfs",
    "ConstantLatency",
    "LatencyMap",
    "LatencyModel",
    "LogNormalLatency",
    "UniformLatency",
    "Category",
    "NetMessage",
    "P2PNetwork",
    "AGENT_BANDWIDTH_CUTOFF_KBPS",
    "BandwidthProfile",
    "DEFAULT_BANDWIDTH_PROFILE",
    "NetNode",
    "assign_bandwidths",
    "Substrate",
    "Topology",
    "power_law_topology",
    "random_topology",
    "ring_lattice",
    "small_world_topology",
    "topology_for_degree",
]
