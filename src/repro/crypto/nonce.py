"""Nonce issuance and replay detection.

Nonces appear in three places in the paper: the anonymity-key handshake
(Fig. 3), trust value request/response matching (§3.5.1–3.5.2), and
transaction reports (§3.5.3).  :class:`NonceRegistry` provides both sides:
issuing fresh nonces and rejecting any value seen before.

A nonce is the nonzero raw PCG64 word: exactly what
``rng.integers(1, 2**64, dtype=np.uint64)`` returns.  At that range numpy
draws with Lemire's 64-bit rule over ``2⁶⁴ − 1`` values, and the product
``w · (2⁶⁴ − 1)`` has high word ``w − 1`` and low word ``2⁶⁴ − w``: it is
rejected only for ``w = 0`` and otherwise yields ``1 + (w − 1) = w``.  So
reading the words straight from the bit generator, skipping zeros, gives
the same nonces and leaves the same generator state.  Neither path
touches the generator's buffered 32-bit half-word, so an interleaved
``integers(0, m)`` draw lands where it did.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ReplayError

__all__ = ["NonceRegistry"]


class NonceRegistry:
    """Issue unique nonces and detect replays.

    A bounded LRU-ish eviction keeps memory constant under long simulations:
    once ``capacity`` nonces are stored, the oldest half is discarded.  That
    matches deployed replay caches, which only guard a recency window.

    Nonces are read as raw words (module docstring), so ``rng`` must run
    on PCG64 — every :func:`repro.sim.rng.make_rng` stream does; any other
    bit generator is refused.
    """

    def __init__(self, rng: np.random.Generator, capacity: int = 100_000) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise ConfigError(
                "NonceRegistry reads raw PCG64 words only, got "
                f"{type(bit_generator).__name__}"
            )
        self._raw = bit_generator.random_raw
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
            nonce = self._raw()
            if nonce and nonce not in self._issued:
                self._remember(self._issued, nonce)
                return nonce

    def issue_many(self, k: int) -> list[int]:
        """Exactly ``k`` successive :meth:`issue` calls, drawn as one vector.

        Same nonces, same ``_issued`` order, same generator state: a zero
        word, or a draw that repeats an issued nonce (or an earlier draw of
        the batch), is skipped and :meth:`issue` draws on from where the
        vector ended, and a batch that would reach the capacity trim is
        issued one at a time, because the trim changes what later draws
        collide with.
        """
        issued = self._issued
        if len(issued) + k > self._capacity:
            return [self.issue() for _ in range(k)]
        nonces: list[int] = []
        for nonce in self._raw(k).tolist():
            if nonce and nonce not in issued:
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
