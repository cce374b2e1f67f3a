"""hiREP core: the paper's primary contribution."""

from repro.core.agent import AgentStats, ReputationAgent
from repro.core.agent_list import TrustedAgent, TrustedAgentList
from repro.core.config import DEFAULT_CONFIG, HiRepConfig, TABLE1_ROWS
from repro.core.discovery import DiscoveryOutcome, discover_agent_lists
from repro.core.dispatch import ProtocolDispatcher
from repro.core.interface import Outcome, ReputationSystem
from repro.core.registry import (
    DEFAULT_REGISTRY,
    SystemRegistry,
    build_system,
    register_system,
    system_names,
)
from repro.core.runtime import (
    Estimate,
    HiRepRuntime,
    MetricsPipeline,
    Ticket,
    TransactionRuntime,
    draw_vote,
    serialize_arrivals,
)
from repro.core.services import (
    KeyRotationService,
    MaintenanceService,
    QueryService,
    Wiring,
    build_wiring,
)
from repro.core.expertise import ExpertiseTracker, consistent
from repro.core.messages import (
    AgentListEntry,
    AgentListReply,
    AgentListRequest,
    SignedResult,
    TransactionReport,
    TrustRequestBody,
    TrustResponseBody,
    TrustValueRequest,
    TrustValueResponse,
)
from repro.core.peer import HiRepPeer, PendingQuery, QueryResult
from repro.core.ranking import rank_within_list, reply_block, select_agents
from repro.core.system import HiRepSystem
from repro.core.trust_models import (
    EWMAReportModel,
    QualityDrivenModel,
    ReportAverageModel,
    TrustModel,
)

__all__ = [
    "AgentStats",
    "ReputationAgent",
    "TrustedAgent",
    "TrustedAgentList",
    "DEFAULT_CONFIG",
    "HiRepConfig",
    "TABLE1_ROWS",
    "DiscoveryOutcome",
    "discover_agent_lists",
    "ExpertiseTracker",
    "consistent",
    "AgentListEntry",
    "AgentListReply",
    "AgentListRequest",
    "SignedResult",
    "TransactionReport",
    "TrustRequestBody",
    "TrustResponseBody",
    "TrustValueRequest",
    "TrustValueResponse",
    "HiRepPeer",
    "PendingQuery",
    "QueryResult",
    "rank_within_list",
    "reply_block",
    "select_agents",
    "HiRepSystem",
    "EWMAReportModel",
    "QualityDrivenModel",
    "ReportAverageModel",
    "TrustModel",
    "DEFAULT_REGISTRY",
    "Estimate",
    "HiRepRuntime",
    "KeyRotationService",
    "MaintenanceService",
    "MetricsPipeline",
    "Outcome",
    "ProtocolDispatcher",
    "QueryService",
    "ReputationSystem",
    "SystemRegistry",
    "Ticket",
    "TransactionRuntime",
    "Wiring",
    "build_system",
    "build_wiring",
    "draw_vote",
    "register_system",
    "serialize_arrivals",
    "system_names",
]
