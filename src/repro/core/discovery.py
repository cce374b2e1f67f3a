"""Trusted-agent-list discovery: the token + TTL protocol of §3.4.1 / Fig. 4.

A requestor floods ``{R_al, token, TTL}`` to its neighbours with the tokens
split among them.  A node holding a trusted-agent list returns it to the
requestor (consuming one token) and forwards the remainder; a node without
a list forwards its tokens untouched, optionally returning its own identity
as a candidate reputation agent.  Propagation stops when tokens are used up
or the TTL expires — so, unlike pure flooding, the reply volume is bounded
by the token budget no matter how dense the overlay is.

Message accounting: one message per request edge traversed; each reply
costs ``depth`` messages (it routes back along the reverse path, Gnutella
query-hit style).

A remainder of ``extra`` tokens goes to ``extra`` distinct neighbours
drawn with ``rng.choice(k, size=extra, replace=False)``.  For
``extra == 1`` that call takes numpy's Floyd path, whose one draw is
``random_bounded_uint64(0, k − 1)`` (and a one-element shuffle draws
nothing): exactly what ``rng.integers(0, k)`` computes, through the same
32-bit Lemire rule and the generator's buffered half-word.  So the flood
makes that one scalar draw instead (~1 µs against ~4.4 µs for
``choice``): same neighbour, same generator state after it
(``tests/property/test_prop_draws.py`` pins it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

import numpy as np

from repro.errors import ConfigError
from repro.net.topology import Topology

__all__ = [
    "DiscoveryOutcome",
    "bootstrap_lists",
    "discover_agent_lists",
    "maintain_list",
    "probe_backups",
]

#: A parked agent, however the caller's cache names it.
T = TypeVar("T")


@dataclass
class DiscoveryOutcome:
    """Who replied to one discovery round, plus its traffic bill.

    Replies are columns, one cell per reply in flood order: the round
    says *who* answered and how; what a responder's list holds is the
    caller's to gather (for the winners only, after ranking).
    """

    responders: list[int] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)
    #: True: the responder shared its trusted-agent list; False: it had
    #: none and offered itself as an agent.
    shared_list: list[bool] = field(default_factory=list)
    request_messages: int = 0

    @property
    def reply_messages(self) -> int:
        """Each reply routes back along its ``depth``-hop reverse path."""
        return sum(self.depths)

    @property
    def tokens_spent(self) -> int:
        """Every reply consumes exactly one token."""
        return len(self.responders)

    @property
    def total_messages(self) -> int:
        return self.request_messages + self.reply_messages


def discover_agent_lists(
    topology: Topology,
    requestor: int,
    tokens: int,
    ttl: int,
    *,
    rng: np.random.Generator,
    has_list: Callable[[int], bool],
    self_offer: Callable[[int], bool],
    online: Callable[[int], bool] | None = None,
) -> DiscoveryOutcome:
    """Run one agent-list request round from ``requestor``.

    Parameters
    ----------
    has_list:
        ``node -> bool`` (or any value read for its truth, such as the
        list's length) — whether the node holds a (non-empty)
        trusted-agent list to share; without one it forwards its tokens
        untouched.
    self_offer:
        ``node -> bool`` — asked only of a listless node: whether it is a
        reputation agent willing to serve.  Called at the point in the
        flood where the node answers, so an implementation freshens the
        agent's onion here and every RNG stream is drawn in flood order.
    online:
        Liveness predicate (offline nodes swallow tokens sent to them:
        charged but lost, like datagrams to a dead host).  It is only
        asked about topology neighbours, so it need not check the range.
    """
    if tokens < 1:
        raise ConfigError(f"tokens must be >= 1, got {tokens}")
    if ttl < 1:
        raise ConfigError(f"ttl must be >= 1, got {ttl}")
    is_online = online if online is not None else (lambda _n: True)
    adjacency = topology.adjacency
    outcome = DiscoveryOutcome()
    replied: set[int] = set()
    requests = 0
    # (node, tokens carried, depth, came_from); depth 0 is the requestor
    # sending its own tokens.
    queue: deque[tuple[int, int, int, int]] = deque([(requestor, tokens, 0, -1)])
    while queue:
        node, carry, depth, came_from = queue.popleft()
        if depth:
            if node == requestor:
                continue
            if node not in replied:
                # "The node can return its own nodeID if it has no trusted
                # agent list" — this also costs a token, which is how I in
                # Fig. 4 'uses up the last token'.
                shares_list = bool(has_list(node))
                if shares_list or self_offer(node):
                    outcome.responders.append(node)
                    outcome.depths.append(depth)
                    outcome.shared_list.append(shares_list)
                    replied.add(node)
                    carry -= 1
        if carry <= 0 or depth >= ttl:
            continue
        # Forward the rest to the other neighbours, split evenly; the
        # remainder goes to ``extra`` of them drawn at random.
        nbrs = [n for n in adjacency[node] if n != came_from]
        if not nbrs:
            continue
        base, extra = divmod(carry, len(nbrs))
        shares = [base] * len(nbrs)
        if extra == 1:  # the common remainder: one bounded draw (docstring)
            shares[rng.integers(0, len(nbrs))] += 1
        elif extra:
            for i in rng.choice(len(nbrs), size=extra, replace=False).tolist():
                shares[i] += 1
        for nbr, share in zip(nbrs, shares):
            if share:
                requests += 1
                if is_online(nbr):  # else the tokens are lost with the dead host
                    queue.append((nbr, share, depth + 1, node))
    outcome.request_messages = requests
    return outcome


def bootstrap_lists(
    rounds: int,
    peers: int,
    rng: np.random.Generator,
    *,
    online: Callable[[int], bool],
    shortfall: Callable[[int], int],
    discover: Callable[[int, int], object],
) -> None:
    """§3.4.1 bootstrap: give every peer an initial trusted-agent list.

    Each round visits the peers in a fresh shuffle of ``rng``; an online
    peer whose list is ``shortfall(p) > 0`` entries below capacity runs
    one ``discover(p, wanted)``.  Two rounds are the norm: the first
    seeds from agent self-entries, the second propagates the now-existing
    lists so peers reach capacity — "the reputation list initialization
    is executed only once for each peer" (§4.1), so experiments reset the
    message counter afterwards.
    """
    order = np.arange(peers)
    for _ in range(rounds):
        rng.shuffle(order)
        for i in order:
            p = int(i)
            if online(p):
                wanted = shortfall(p)
                if wanted > 0:
                    discover(p, wanted)


def maintain_list(
    length: Callable[[], int],
    capacity: int,
    threshold: int,
    *,
    probe: Callable[[], object],
    discover: Callable[[int], object],
) -> None:
    """§3.4.3 maintenance of one list: below the refill ``threshold`` it
    probes its parked backups, and rediscovers up to ``capacity`` when
    that did not restore enough."""
    if length() < threshold:
        probe()
        if length() < threshold:
            discover(capacity - length())


def probe_backups(
    backups: Iterable[T],
    *,
    online: Callable[[T], bool],
    restore: Callable[[T], bool],
    drop: Callable[[T], object],
) -> tuple[int, int]:
    """§3.4.3 backup probe: every parked agent (a snapshot of the cache,
    most recent first) is probed; one that is ``online`` answers and is
    ``restore``d if the live list has room, a silent one is ``drop``ped.

    Returns ``(restored, messages)`` — one ``control`` message per probe
    plus one per reply; billing them is the caller's.
    """
    restored = messages = 0
    for agent in backups:
        messages += 1  # probe out
        if online(agent):
            messages += 1  # probe reply
            restored += bool(restore(agent))
        else:
            drop(agent)
    return restored, messages
