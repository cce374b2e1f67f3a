"""hiREP protocol wire formats (§3.4–3.5).

Message shapes follow the paper exactly:

* trust value request  — ``{SP_e(R), SP_p, Onion_p}`` with ``R = {subject,
  nonce}`` sealed to the agent's public signature key;
* trust value response — ``{SP_p(T), SP_e, Onion_e}`` with ``T = {trust
  value, nonce}`` sealed to the requesting peer, echoing the request nonce
  and piggy-backing a fresh onion of the agent;
* transaction report   — ``(SR_p(result, nonce), nodeID_p)``: the outcome
  signed with the reporter's private signature key, located in the agent's
  public-key list by nodeID;
* agent-list entry     — one row of a trusted-agent list,
  ``{weight, nodeID, Onion, SP}`` (§3.4.1); discovery hands lists of them
  between peers in process and bills the flood's messages by count, so no
  agent-list message is framed.

The dataclasses carry *sealed/signed* fields as opaque values produced by a
cipher backend; nothing here depends on which backend sealed them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.backend import PublicKey
from repro.crypto.hashing import NodeID
from repro.onion.onion import Onion

__all__ = [
    "TrustRequestBody",
    "TrustValueRequest",
    "TrustResponseBody",
    "TrustValueResponse",
    "SignedResult",
    "TransactionReport",
    "AgentListEntry",
    "KeyUpdateAnnouncement",
]


# --------------------------------------------------------------------------
# Trust value request / response (§3.5.1–3.5.2)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrustRequestBody:
    """Plaintext ``R = {request, nonce}``: asks for one subject's trust value."""

    subject: NodeID
    nonce: int


@dataclass(frozen=True)
class TrustValueRequest:
    """``{SP_e(R), SP_p, Onion_p}`` — travels to the agent via its onion."""

    sealed_body: Any          # SP_e(R)
    requestor_sp: PublicKey   # SP_p — lets the agent learn/verify nodeID_p
    requestor_onion: Onion    # Onion_p — the reply path


@dataclass(frozen=True)
class TrustResponseBody:
    """Plaintext ``T = {trust value, nonce}``; nonce echoes the request."""

    subject: NodeID
    trust_value: float
    nonce: int


@dataclass(frozen=True)
class TrustValueResponse:
    """``{SP_p(T), SP_e, Onion_e}`` — travels back via the peer's onion."""

    sealed_body: Any          # SP_p(T)
    agent_sp: PublicKey       # SP_e
    agent_onion: Onion        # fresh Onion_e for future reports


# --------------------------------------------------------------------------
# Transaction result report (§3.5.3)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedResult:
    """What SR_p signs: the transaction outcome for a subject, plus a nonce."""

    subject: NodeID
    outcome: float            # observed transaction quality in [0, 1]
    nonce: int


@dataclass(frozen=True)
class TransactionReport:
    """``(SR_p(result, nonce), nodeID_p)`` — signature located via nodeID."""

    result: SignedResult
    signature: Any
    reporter_node_id: NodeID


# --------------------------------------------------------------------------
# Periodic key update (§3.5, last paragraph)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyUpdateAnnouncement:
    """``New public keys signed by current private key`` (§3.5).

    The holder of ``old_node_id``'s private key announces a successor SP;
    the signature (under the *old* SR, over the new SP bytes) lets
    correspondents "map and replace an old nodeID to a new nodeID" without
    any third party.
    """

    old_node_id: NodeID
    new_sp: PublicKey
    signature: Any


# --------------------------------------------------------------------------
# Trusted-agent-list discovery (§3.4.1, Fig. 4)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentListEntry:
    """One row of a trusted-agent list: ``{weight, nodeID, Onion, SP}``."""

    weight: float
    agent_node_id: NodeID
    agent_onion: Onion | None
    agent_sp: PublicKey
    agent_ip: int = -1
    """Transport hint used by the simulation to address the agent; real
    deployments reach agents through their onions only."""
