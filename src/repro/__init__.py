"""repro — a full reproduction of *hiREP: Hierarchical Reputation
Management for Peer-to-Peer Systems* (Liu & Xiao, ICPP 2006).

Public API tour
---------------

>>> from repro import HiRepSystem, HiRepConfig
>>> system = HiRepSystem(HiRepConfig(network_size=200, seed=7))
>>> system.bootstrap()
>>> outcome = system.run_transaction(requestor=0)
>>> 0.0 <= outcome.estimate <= 1.0
True

Subpackages: :mod:`repro.core` (the hiREP protocol), :mod:`repro.net`
(unstructured P2P substrate), :mod:`repro.onion` (onion routing),
:mod:`repro.crypto` (RSA / simulated backends), :mod:`repro.sim`
(discrete-event engine and metrics), :mod:`repro.baselines` (pure voting,
TrustMe, EigenTrust), :mod:`repro.attacks` (§4.2 attack models),
:mod:`repro.workloads` and :mod:`repro.experiments` (per-figure harness),
:mod:`repro.exec` (parallel experiment orchestration: process-pool
scheduler, content-addressed result cache, resumable run manifests).
"""

from repro._version import __version__
from repro.core.config import DEFAULT_CONFIG, HiRepConfig
from repro.core.interface import Outcome, ReputationSystem
from repro.core.registry import (
    DEFAULT_REGISTRY,
    SystemRegistry,
    build_system,
    register_system,
    system_names,
)
from repro.core.system import HiRepSystem
from repro.baselines.voting import PureVotingSystem
from repro.errors import ReproError

__all__ = [
    "__version__",
    "DEFAULT_CONFIG",
    "DEFAULT_REGISTRY",
    "HiRepConfig",
    "HiRepSystem",
    "Outcome",
    "ReputationSystem",
    "SystemRegistry",
    "PureVotingSystem",
    "ReproError",
    "build_system",
    "register_system",
    "system_names",
]
