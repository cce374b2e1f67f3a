"""EigenTrust (Kamvar et al., WWW'03) — extension comparator.

EigenTrust aggregates *local* trust values into a global trust vector by
power iteration over the normalized local-trust matrix, damped toward a
pre-trusted set:

    t ← (1 − a) · Cᵀ t + a · p

It targets structured overlays (the paper's §2 files it under systems that
"utilize topology information … of the structured P2P systems"), so it is
not one of the paper's measured baselines — we include it to position
hiREP's accuracy against the canonical global-reputation algorithm in the
extension experiments.

The implementation is pure numpy (vectorized per the HPC guides) and a thin
:class:`EigenTrustSystem` adapter runs it over the shared :class:`World`
with the same transaction workload.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineSystem
from repro.core.runtime import Estimate
from repro.errors import ConfigError

__all__ = ["eigentrust", "normalize_local_trust", "EigenTrustSystem"]


def normalize_local_trust(local: np.ndarray) -> np.ndarray:
    """Row-normalize max(local, 0) into the stochastic matrix C.

    Rows with no positive opinion become uniform (the standard EigenTrust
    fallback so the matrix stays stochastic).
    """
    if local.ndim != 2 or local.shape[0] != local.shape[1]:
        raise ConfigError(f"local trust must be square, got {local.shape}")
    c = np.maximum(local, 0.0)
    sums = c.sum(axis=1, keepdims=True)
    n = c.shape[0]
    uniform = np.full(n, 1.0 / n)
    out = np.where(sums > 0, c / np.where(sums > 0, sums, 1.0), uniform)
    return out


def eigentrust(
    local: np.ndarray,
    pretrusted: np.ndarray | None = None,
    *,
    alpha: float = 0.15,
    eps: float = 1e-10,
    max_iter: int = 1000,
) -> np.ndarray:
    """Compute the global trust vector by damped power iteration.

    Parameters
    ----------
    local:
        n×n local trust values (``local[i, j]`` = i's opinion of j).
    pretrusted:
        Boolean or weight vector of pre-trusted peers; defaults to uniform.
    alpha:
        Damping toward the pre-trusted distribution (break-out defence).
    """
    if not 0.0 <= alpha < 1.0:
        raise ConfigError(f"alpha must be in [0,1), got {alpha}")
    c = normalize_local_trust(local)
    n = c.shape[0]
    if pretrusted is None:
        p = np.full(n, 1.0 / n)
    else:
        p = np.asarray(pretrusted, dtype=np.float64)
        total = p.sum()
        p = np.full(n, 1.0 / n) if total <= 0 else p / total
    t = p.copy()
    ct = c.T  # iterate t ← (1-a)·Cᵀt + a·p
    for _ in range(max_iter):
        t_next = (1.0 - alpha) * (ct @ t) + alpha * p
        if np.abs(t_next - t).sum() < eps:
            return t_next
        t = t_next
    return t


class EigenTrustSystem(BaselineSystem):
    """EigenTrust over the shared world, fed by the same workload.

    Each transaction deposits a local-trust observation (honest raters rate
    the provider's truth, malicious raters invert), and the estimate for a
    provider is its global trust score rescaled against the current maximum
    so it is comparable to [0, 1] trust values.

    Score distribution runs over a real Chord DHT
    (:mod:`repro.structured.chord`) following the EigenTrust paper's
    score-manager placement: peer *i*'s global score lives at the successor
    of ``hash(i)``, recomputations PUT every score (O(n · log n) routed
    messages), and each trust check is a GET (O(log n)) — so this baseline's
    traffic is measured, not asserted.
    """

    RECOMPUTE_EVERY = 10

    def _ensure_ready(self) -> None:
        if hasattr(self, "_local"):
            return
        from repro.structured.chord import ChordRing, DHTStore

        n = self.config.network_size
        self._local = np.zeros((n, n))
        self._global = np.full(n, 1.0 / n)
        self._ring = ChordRing(n, counter=self.counter)
        self._dht = DHTStore(self._ring)

    @staticmethod
    def _score_key(peer: int) -> bytes:
        return b"eigentrust-score-%d" % peer

    def _publish_scores(self) -> None:
        """PUT every peer's score at its score manager."""
        for peer in range(self.config.network_size):
            self._dht.put(peer, self._score_key(peer), float(self._global[peer]))

    def _execute(self, req: int, prov: int) -> Estimate:
        truth = float(self.truth[prov])

        before = self.counter.total
        if self.transactions_run % self.RECOMPUTE_EVERY == 0:
            pre = (~self.malicious).astype(np.float64)
            self._global = eigentrust(self._local, pre)
            self._publish_scores()

        # Trust check: fetch the provider's score from its score manager.
        stored, _lookup = self._dht.get(req, self._score_key(prov))
        score = stored if stored is not None else float(self._global[prov])
        top = float(self._global.max())
        estimate = float(score / top) if top > 0 else 0.5
        estimate = min(max(estimate, 0.0), 1.0)

        self._local[req, prov] += self._rate(req, truth)

        return Estimate(
            estimate, float("nan"), messages=self.counter.total - before
        )
