"""Network-layer message envelope.

The envelope is what the network delivers: source/destination *IP* (node
index), an opaque payload owned by the upper layer, and an accounting
category so the :class:`~repro.sim.metrics.MessageCounter` can attribute
traffic to protocol phases (trust query, onion relay, agent discovery, …).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["NetMessage", "Category", "DEFAULT_MESSAGE_BYTES"]


class Category:
    """Accounting categories used across the library (plain constants)."""

    TRUST_QUERY = "trust_query"
    TRUST_RESPONSE = "trust_response"
    TRANSACTION_REPORT = "transaction_report"
    ONION_RELAY = "onion_relay"
    AGENT_DISCOVERY = "agent_discovery"
    AGENT_DISCOVERY_REPLY = "agent_discovery_reply"
    KEY_EXCHANGE = "key_exchange"
    FLOOD_QUERY = "flood_query"
    FLOOD_RESPONSE = "flood_response"
    CONTROL = "control"


#: Nominal datagram size when the sender does not specify one (bytes).
DEFAULT_MESSAGE_BYTES = 512


@dataclass(slots=True)
class NetMessage:
    """One network-layer datagram."""

    src: int
    dst: int
    payload: Any
    category: str = Category.CONTROL
    size_bytes: int = DEFAULT_MESSAGE_BYTES
    sent_at: float = 0.0
