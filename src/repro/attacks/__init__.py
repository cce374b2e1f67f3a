"""Attack models from the paper's robustness analysis (§4.2)."""

from repro.attacks.dos import DosOutcome, restore_agents, take_down_top_agents
from repro.attacks.models import (
    RecommendationAttacker,
    install_recommendation_attack,
)
from repro.attacks.oscillation import OscillatingModel
from repro.attacks.spoofing import SpoofingReport, forge_report, mount_spoofing_attack
from repro.attacks.sybil import SybilOperator
from repro.attacks.traffic_analysis import (
    TrafficObserver,
    top_k_precision,
    true_popular_agents,
)
from repro.attacks.whitewash import WhitewashOutcome, whitewash_provider

__all__ = [
    "TrafficObserver",
    "top_k_precision",
    "true_popular_agents",
    "OscillatingModel",
    "WhitewashOutcome",
    "whitewash_provider",
    "DosOutcome",
    "restore_agents",
    "take_down_top_agents",
    "RecommendationAttacker",
    "install_recommendation_attack",
    "SpoofingReport",
    "forge_report",
    "mount_spoofing_attack",
    "SybilOperator",
]
