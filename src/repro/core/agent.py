"""The reputation-agent role (§3.2, §3.5).

A reputation agent is a peer with > 64 kbps that has chosen to serve trust
values.  It keeps:

* a **public-key list** ``{nodeID_i: SP_i}`` of every peer that trusts it —
  populated from trust-value requests after verifying that the claimed
  nodeID really is the hash of the presented SP (spoofing defence);
* a **trust model** producing trust values (quality-driven in the paper's
  simulation, report-driven in extension experiments);
* a **report log** of authenticated transaction results.

Incoming messages arrive through the agent's own onion; replies leave
through the requestor's onion, so neither side ever learns the other's IP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.messages import (
    KeyUpdateAnnouncement,
    SignedResult,
    TransactionReport,
    TrustRequestBody,
    TrustResponseBody,
    TrustValueRequest,
    TrustValueResponse,
)
from repro.core.trust_models import TrustModel
from repro.crypto.backend import CipherBackend, PublicKey
from repro.crypto.hashing import NodeID, node_id_from_key, verify_node_id
from repro.crypto.keys import PeerKeys
from repro.errors import CryptoError, ProtocolError
from repro.onion.onion import Onion

__all__ = ["ReputationAgent", "AgentStats"]


@dataclass
class AgentStats:
    """Counters for analysis and the robustness experiments."""

    requests_served: int = 0
    reports_accepted: int = 0
    reports_rejected: int = 0
    keys_learned: int = 0
    replays_blocked: int = 0


class ReputationAgent:
    """Agent-side protocol logic; transport-agnostic (pure state machine)."""

    def __init__(
        self,
        ip: int,
        keys: PeerKeys,
        backend: CipherBackend,
        model: TrustModel,
        rng: np.random.Generator,
        truth_oracle,
    ) -> None:
        """``truth_oracle(node_id) -> float`` supplies the simulation's
        ground truth to quality-driven models (§5.2); report-driven models
        ignore it."""
        self.ip = ip
        self.keys = keys
        self.backend = backend
        self.model = model
        self.rng = rng
        self.truth_oracle = truth_oracle
        self.public_key_list: dict[NodeID, PublicKey] = {}
        self.report_log: dict[NodeID, list[float]] = {}
        self.stats = AgentStats()
        #: nonce -> subject of every accepted report, in acceptance order:
        #: a journal of ``report_log``'s appends (both only ever grow).
        self._seen_report_nonces: dict[int, NodeID] = {}

    @property
    def node_id(self) -> NodeID:
        return self.keys.node_id

    # -- trust value request handling (§3.5.1–3.5.2) -------------------------

    def handle_trust_request(
        self, request: TrustValueRequest, fresh_onion: Onion
    ) -> TrustValueResponse:
        """Serve one trust-value request.

        Decrypts ``SP_e(R)`` with the agent's private signature key, learns
        the requestor's (nodeID, SP) pair, evaluates the subject, and seals
        the response to the requestor's SP — echoing the request nonce and
        attaching ``fresh_onion`` as the new Onion_e.

        Raises
        ------
        ProtocolError
            When the sealed body cannot be opened or is malformed.
        """
        try:
            body = self.backend.decrypt(self.keys.sr, request.sealed_body)
        except CryptoError as exc:
            raise ProtocolError(f"trust request not sealed to this agent: {exc}") from exc
        if not isinstance(body, TrustRequestBody):
            raise ProtocolError("trust request body malformed")

        # "E computes the nodeID of P using the pre-known hash function"
        # and adds (nodeID, SP) to its public key list if absent.
        requestor_id = node_id_from_key(request.requestor_sp)
        if requestor_id not in self.public_key_list:
            self.public_key_list[requestor_id] = request.requestor_sp
            self.stats.keys_learned += 1

        truth = float(self.truth_oracle(body.subject))
        value = float(self.model.evaluate(body.subject, truth, self.rng))
        response_body = TrustResponseBody(
            subject=body.subject, trust_value=value, nonce=body.nonce
        )
        self.stats.requests_served += 1
        return TrustValueResponse(
            sealed_body=self.backend.encrypt(request.requestor_sp, response_body),
            agent_sp=self.keys.sp,
            agent_onion=fresh_onion,
        )

    # -- transaction report handling (§3.5.3) ---------------------------------

    def handle_report(self, report: TransactionReport) -> bool:
        """Verify and store a transaction report; returns acceptance.

        The agent locates SP_p in its public-key list by the claimed
        nodeID and verifies the signature; anything that fails — unknown
        reporter, bad signature, replayed nonce — is dropped, which is the
        entirety of the spoofing defence (§4.2.2).
        """
        sp = self.public_key_list.get(report.reporter_node_id)
        if sp is None:
            self.stats.reports_rejected += 1
            return False
        if not verify_node_id(report.reporter_node_id, sp):
            # Defensive: a poisoned key list entry would be caught here.
            self.stats.reports_rejected += 1
            return False
        if not self.backend.verify(sp, report.result, report.signature):
            self.stats.reports_rejected += 1
            return False
        if report.result.nonce in self._seen_report_nonces:
            self.stats.replays_blocked += 1
            self.stats.reports_rejected += 1
            return False
        self._seen_report_nonces[report.result.nonce] = report.result.subject
        self.report_log.setdefault(report.result.subject, []).append(
            report.result.outcome
        )
        self.model.observe_report(report.result.subject, report.result.outcome)
        self.stats.reports_accepted += 1
        return True

    # -- key update handling (§3.5, last paragraph) -----------------------------

    def handle_key_update(self, announcement: KeyUpdateAnnouncement) -> bool:
        """Map an old nodeID to its announced successor.

        Accepts only when (a) the old nodeID is in the key list, (b) the
        signature over the new SP verifies under the *old* SP, and (c) the
        new SP actually hashes to a fresh, unclaimed nodeID.  On success the
        peer's accumulated reputation (its report history is keyed by the
        *subject*, not the reporter, so nothing moves there) carries over to
        the new identity in the public-key list.
        """
        old_sp = self.public_key_list.get(announcement.old_node_id)
        if old_sp is None:
            self.stats.reports_rejected += 1
            return False
        payload = ("key-update", announcement.new_sp.to_bytes())
        if not self.backend.verify(old_sp, payload, announcement.signature):
            self.stats.reports_rejected += 1
            return False
        new_id = node_id_from_key(announcement.new_sp)
        if new_id in self.public_key_list:
            self.stats.reports_rejected += 1
            return False
        del self.public_key_list[announcement.old_node_id]
        self.public_key_list[new_id] = announcement.new_sp
        return True

    # -- introspection ----------------------------------------------------------

    def reports_for(self, subject: NodeID) -> list[float]:
        return list(self.report_log.get(subject, ()))

    @staticmethod
    def make_signed_result(
        backend: CipherBackend,
        reporter_keys: PeerKeys,
        subject: NodeID,
        outcome: float,
        nonce: int,
    ) -> TransactionReport:
        """Build the ``(SR_p(result, nonce), nodeID_p)`` report a peer sends."""
        result = SignedResult(subject=subject, outcome=outcome, nonce=nonce)
        signature = backend.sign(reporter_keys.sr, result)
        return TransactionReport(
            result=result,
            signature=signature,
            reporter_node_id=reporter_keys.node_id,
        )
