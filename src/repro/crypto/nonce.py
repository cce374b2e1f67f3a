"""Nonce issuance and replay detection.

Nonces appear in three places in the paper: the anonymity-key handshake
(Fig. 3), trust value request/response matching (§3.5.1–3.5.2), and
transaction reports (§3.5.3).  :class:`NonceRegistry` provides both sides:
issuing fresh nonces and rejecting any value seen before.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReplayError

__all__ = ["NonceRegistry"]

_NONCE_BITS = 64


class NonceRegistry:
    """Issue unique nonces and detect replays.

    A bounded LRU-ish eviction keeps memory constant under long simulations:
    once ``capacity`` nonces are stored, the oldest half is discarded.  That
    matches deployed replay caches, which only guard a recency window.
    """

    def __init__(self, rng: np.random.Generator, capacity: int = 100_000) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self._rng = rng
        self._capacity = capacity
        # Both stores are insertion-ordered sets, so "oldest" means something.
        self._seen: dict[int, None] = {}
        self._issued: dict[int, None] = {}

    def _remember(self, store: dict[int, None], nonce: int) -> None:
        """Store ``nonce``; past ``capacity``, forget the oldest half."""
        store[nonce] = None
        if len(store) > self._capacity:
            for key in list(store)[: len(store) // 2]:
                del store[key]

    def issue(self) -> int:
        """Return a fresh nonce never issued by this registry before."""
        while True:
            nonce = int(self._rng.integers(1, 2**_NONCE_BITS, dtype=np.uint64))
            if nonce not in self._issued:
                self._remember(self._issued, nonce)
                return nonce

    def issue_many(self, k: int) -> list[int]:
        """Exactly ``k`` successive :meth:`issue` calls, drawn as one vector.

        Same nonces, same ``_issued`` order, same generator state: a draw
        that repeats an issued nonce (or an earlier draw of the batch) is
        skipped and :meth:`issue` draws on from where the vector ended,
        and a batch that would reach the capacity trim is issued one at a
        time, because the trim changes what later draws collide with.
        """
        issued = self._issued
        if len(issued) + k > self._capacity:
            return [self.issue() for _ in range(k)]
        nonces: list[int] = []
        draws = self._rng.integers(1, 2**_NONCE_BITS, dtype=np.uint64, size=k)
        for nonce in draws.tolist():
            if nonce not in issued:
                issued[nonce] = None
                nonces.append(nonce)
        while len(nonces) < k:
            nonces.append(self.issue())
        return nonces

    def accept(self, nonce: int) -> None:
        """Record an incoming nonce; raise :class:`ReplayError` if replayed."""
        if nonce in self._seen:
            raise ReplayError(f"nonce {nonce} replayed")
        self._remember(self._seen, nonce)

    def has_seen(self, nonce: int) -> bool:
        return nonce in self._seen
