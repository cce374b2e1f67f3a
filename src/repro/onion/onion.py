"""Onion construction and peeling (§3.3).

Paper format::

    (((((((fakeonion)AP_p)IP_p)AP_1)IP_1) … AP_k)IP_k, sq) SR_p

Reading inside-out: the core is a *fake onion* sealed to the owner P's own
anonymity key; each enclosing layer is sealed to one relay's anonymity key
and names the IP of the *next* hop inward.  The outermost layer names IP_k,
the entry relay.  ``sq`` is a non-decreasing sequence number indicating the
onion's age, and the whole structure is signed with the owner's signature
private key SR_p so holders can verify authenticity against SP_p.

A relay peels one layer with its AR, learns only the next IP, and forwards.
Because every relay (and the owner) receives a structurally identical blob,
"even the relay next to P does not know P is the receiver": the owner's
peel yields the fake-onion marker, telling *it alone* that the message has
arrived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.crypto.backend import CipherBackend, PrivateKey, PublicKey
from repro.crypto.simulated import Envelope
from repro.errors import OnionPeelError
from repro.net.substrate import Substrate

__all__ = [
    "Onion",
    "OnionLayer",
    "PeelOutcome",
    "build_onion",
    "circuit_usable",
    "draw_relays",
    "peel",
]

#: Marker object at the onion core; only the owner ever sees it.
_FAKE_ONION = "__fake_onion__"


@dataclass(frozen=True)
class OnionLayer:
    """Plaintext of one peeled layer: the next hop and the inner blob."""

    next_ip: int
    inner: Any


@dataclass(frozen=True)
class Onion:
    """A complete, signed onion as stored in trusted-agent lists."""

    first_hop: int
    blob: Any
    seq: int
    signature: Any

    def verify(self, backend: CipherBackend, owner_sp: PublicKey) -> bool:
        """Check the SR_p signature over (blob identity, seq)."""
        return backend.verify(owner_sp, ("onion", self.seq, self.first_hop), self.signature)


class PeelOutcome(NamedTuple):
    """Result of peeling one layer at a relay or the owner."""

    delivered: bool          # True ⇒ this node is the owner; message arrived
    next_ip: int | None      # set when delivered is False
    inner: Any | None        # remaining blob to forward


#: Every owner's peel comes to the same outcome; it is built once.
_DELIVERED = PeelOutcome(True, None, None)


def build_onion(
    backend: CipherBackend,
    owner_ap: PublicKey,
    owner_sr: PrivateKey,
    owner_ip: int,
    relay_keys: list[tuple[int, PublicKey]],
    seq: int,
) -> Onion:
    """Construct an onion whose path runs entry-relay → … → owner.

    Parameters
    ----------
    relay_keys:
        ``[(ip, AP), …]`` ordered from the relay *closest to the owner*
        (innermost layer) to the entry relay (outermost).  May be empty, in
        which case the onion is a single self-layer (no anonymity, useful
        for tests and the o=0 ablation).
    seq:
        Non-decreasing onion age; receivers drop onions older than the
        newest they have seen from the same owner.
    """
    # Core: fake onion sealed to the owner.
    blob: Any = backend.encrypt(owner_ap, OnionLayer(next_ip=-1, inner=_FAKE_ONION))
    prev_ip = owner_ip
    for ip, ap in relay_keys:
        blob = backend.encrypt(ap, OnionLayer(next_ip=prev_ip, inner=blob))
        prev_ip = ip
    first_hop = prev_ip  # entry relay (or the owner itself when no relays)
    signature = backend.sign(owner_sr, ("onion", seq, first_hop))
    return Onion(first_hop=first_hop, blob=blob, seq=seq, signature=signature)


def peel(backend: CipherBackend, ar: PrivateKey, blob: Any) -> PeelOutcome:
    """Peel one layer with this node's anonymity private key.

    Raises
    ------
    OnionPeelError
        If the blob is not sealed to this node's key — the defining failure
        of a misrouted or tampered onion.
    """
    try:
        layer = backend.decrypt(ar, blob)
    except Exception as exc:
        raise OnionPeelError(f"cannot peel onion layer: {exc}") from exc
    if not isinstance(layer, OnionLayer):
        raise OnionPeelError("peeled data is not an onion layer")
    next_ip, inner = layer.next_ip, layer.inner
    # A sealed inner is a relay layer's: no Envelope equals the marker, so
    # it is not asked (a live relay's inner is a slice, which refuses the
    # marker string off its first byte).
    if next_ip < 0 or (type(inner) is not Envelope and inner == _FAKE_ONION):
        return _DELIVERED
    return PeelOutcome(False, next_ip, inner)


def draw_relays(
    network: Substrate, owner: int, count: int, rng: np.random.Generator
) -> list[int]:
    """§3.3 relay draw: up to ``count`` distinct relays among the nodes
    online now, never the owner — the one draw every executor makes.

    Returned inner-to-outer (the order :func:`build_onion` expects once the
    caller attaches each relay's AP), as Python ints: no numpy scalar
    reaches an onion, the codec or an event time.
    """
    online = network.online_indices()
    # The pool is ``online`` without the owner.  It is never built: its
    # length and the node a pick names follow from the owner's slot.
    slot = int(np.searchsorted(online, owner))
    if slot == len(online) or online[slot] != owner:
        slot = pool_len = len(online)  # the owner is offline: nothing to skip
    else:
        pool_len = len(online) - 1
    size = min(count, pool_len)
    if size <= 0:
        return []
    picks = rng.choice(pool_len, size=size, replace=False)
    return online[picks + (picks >= slot)].tolist()


def circuit_usable(network: Substrate, relays: Sequence[int] | np.ndarray) -> bool:
    """§3.3 circuit upkeep: an onion serves while it has relays and every
    one of them is online; otherwise its owner rebuilds it."""
    return len(relays) > 0 and all(map(network.alive.__getitem__, relays))
