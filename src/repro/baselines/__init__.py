"""Baseline reputation systems compared against hiREP."""

from repro.baselines.base import BaselineSystem
from repro.baselines.eigentrust import (
    EigenTrustSystem,
    eigentrust,
    normalize_local_trust,
)
from repro.baselines.credibility import CredibilityVotingSystem
from repro.baselines.gossip import GossipSystem
from repro.baselines.local import LocalReputationSystem
from repro.baselines.trustme import TrustMeSystem
from repro.baselines.voting import PureVotingSystem

__all__ = [
    "CredibilityVotingSystem",
    "GossipSystem",
    "LocalReputationSystem",
    "BaselineSystem",
    "EigenTrustSystem",
    "eigentrust",
    "normalize_local_trust",
    "TrustMeSystem",
    "PureVotingSystem",
]
