"""Overlay topology generators.

The paper generates "a P2P network with power law topology using BRITE"
(§5.2).  BRITE's router-level Barabási model is preferential attachment, so
:func:`power_law_topology` (Barabási–Albert) is a faithful substitute — the
evaluation depends only on the degree distribution and the average node
degree, which BA reproduces.  ER random graphs, Watts–Strogatz small worlds
and ring lattices are provided for sensitivity studies.

A topology is an immutable :class:`Topology`: ``n`` nodes with an adjacency
list of sorted int arrays.  All generators guarantee a connected graph
(Barabási–Albert by construction; the others stitch isolated components to
the giant component with single edges, a standard BRITE-style post-pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "Topology",
    "power_law_topology",
    "random_topology",
    "small_world_topology",
    "ring_lattice",
    "topology_for_degree",
]


@dataclass(frozen=True)
class Topology:
    """An undirected connected overlay graph."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self.adjacency[node]

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def degrees(self) -> np.ndarray:
        return np.asarray([len(a) for a in self.adjacency], dtype=np.int64)

    def average_degree(self) -> float:
        return float(self.degrees().mean())

    def edges(self) -> list[tuple[int, int]]:
        """Each undirected edge once, as (u, v) with u < v."""
        out = []
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return out

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = np.zeros(self.n, dtype=bool)
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self.n


def _finalize(n: int, adj: list[set[int]]) -> Topology:
    """Stitch disconnected components together and freeze the adjacency."""
    _connect_components(n, adj)
    return Topology(n=n, adjacency=tuple(tuple(sorted(s)) for s in adj))


def _connect_components(n: int, adj: list[set[int]]) -> None:
    if n == 0:
        return
    seen = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        components.append(comp)
    # Chain every extra component to the first one.
    anchor = components[0][0]
    for comp in components[1:]:
        adj[anchor].add(comp[0])
        adj[comp[0]].add(anchor)


#: Raw PCG64 words read per :meth:`~numpy.random.BitGenerator.random_raw`
#: call while :func:`power_law_topology` replays its draws: bounded, so the
#: replay never holds a whole run's words as Python ints.
_RAW_CHUNK = 4096
_U32 = 0xFFFFFFFF
_DOUBLE_UNIT = 1.0 / (1 << 53)


def _raw_words(bit_generator: np.random.PCG64) -> Iterator[int]:
    """The generator's 64-bit output words, as ints, read a chunk at a time."""
    while True:
        yield from bit_generator.random_raw(_RAW_CHUNK).tolist()


def power_law_topology(
    n: int, avg_degree: float, rng: np.random.Generator
) -> Topology:
    """Barabási–Albert preferential attachment with ⟨k⟩ ≈ ``avg_degree``.

    Each incoming node attaches ``m ≈ avg_degree / 2`` edges to existing
    nodes chosen proportionally to their degree, yielding the power-law
    degree distribution BRITE produces for router-level topologies.

    The draws are those of ``rng.random()`` (the fractional-degree coin) and
    ``rng.integers(0, len(repeated))`` (each pick), replayed in Python ints
    from the raw PCG64 words instead of one numpy call per pick:

    * a double is ``(word >> 11) · 2⁻⁵³`` and takes a whole word;
    * a bounded int takes a uint32 — the low half of a fresh word, whose
      high half is carried for the next uint32 (``has_uint32`` /
      ``uinteger``) — and applies Lemire's rule: ``x · L``, rejected and
      redrawn while its low 32 bits fall below ``(2³² − L) mod L``.

    Afterwards the generator is left exactly where those numpy calls would
    have left it: the saved state advanced by the words used, plus the carry.
    Only PCG64 (every stream of :func:`repro.sim.rng.make_rng`) is replayed;
    any other bit generator is refused.

    The graph is connected by construction — the seed clique is, and every
    later node links to an earlier one — so there is no stitching pass.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 nodes, got {n}")
    if avg_degree < 1:
        raise ConfigError(f"avg_degree must be >= 1, got {avg_degree}")
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        raise ConfigError(
            "power_law_topology replays PCG64 draws only, got "
            f"{type(bit_generator).__name__}"
        )
    # Fractional attachment: mix m_lo and m_hi edges per new node so odd
    # target degrees (e.g. 3) land between the even BA degrees 2m.
    m_target = avg_degree / 2.0
    m_lo = max(1, int(np.floor(m_target)))
    m_hi = max(1, int(np.ceil(m_target)))
    hi_prob = m_target - m_lo if m_hi > m_lo else 0.0
    if m_hi >= n:
        raise ConfigError(f"avg_degree {avg_degree} too large for {n} nodes")

    # Seed clique of m_hi + 1 nodes.
    seed = m_hi + 1
    # repeated-nodes list: preferential attachment by sampling endpoints.
    # Every edge appends its two ends, so past the seed clique it is also
    # the edge list, as (new node, target) pairs.
    repeated: list[int] = []
    for u in range(seed):
        repeated.extend([u] * (seed - 1))
    base = len(repeated)

    saved = bit_generator.state
    # numpy's uint32 buffer: a pending upper half, kept (stale) once used.
    has_upper, upper = saved["has_uint32"], saved["uinteger"]
    words = _raw_words(bit_generator)
    used = 0
    for u in range(seed, n):
        m = m_lo
        if hi_prob > 0:
            used += 1
            if (next(words) >> 11) * _DOUBLE_UNIT < hi_prob:
                m = m_hi
        size = len(repeated)  # >= 2: the seed clique has an edge
        threshold = ((1 << 32) - size) % size
        targets: set[int] = set()
        while len(targets) < m:
            if has_upper:
                draw = upper * size
                has_upper = 0
            else:
                word = next(words)
                used += 1
                draw = (word & _U32) * size
                has_upper, upper = 1, word >> 32
            if draw & _U32 >= threshold:
                # u is not in repeated yet, so a pick is never u itself.
                targets.add(repeated[draw >> 32])
        for v in targets:
            repeated.append(u)
            repeated.append(v)
    bit_generator.state = saved
    bit_generator.advance(used)
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = has_upper, upper
    bit_generator.state = state

    clique = [(u, v) for u in range(seed) for v in range(u + 1, seed)]
    ends = np.concatenate(
        [
            np.asarray(clique, dtype=np.int64).reshape(-1, 2),
            np.asarray(repeated[base:], dtype=np.int64).reshape(-1, 2),
        ]
    )
    del repeated
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    dst = dst[np.lexsort((dst, src))].tolist()
    # One int object per node, shared by every adjacency entry naming it.
    nodes = list(range(n))
    flat = list(map(nodes.__getitem__, dst))
    del dst
    offsets = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n)))).tolist()
    rows = map(flat.__getitem__, map(slice, offsets[:-1], offsets[1:]))
    return Topology(n=n, adjacency=tuple(map(tuple, rows)))


#: Coin flips :func:`random_topology` draws per ``rng.random`` call.
_COIN_BLOCK = 1 << 20


def random_topology(n: int, avg_degree: float, rng: np.random.Generator) -> Topology:
    """Erdős–Rényi G(n, p) with p chosen for the requested average degree.

    One coin per upper-triangle pair in row-major order, drawn a block of
    whole rows at a time: ``random(a)`` then ``random(b)`` reads the same
    doubles as ``random(a + b)``, so memory stays bounded at any ``n``.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 nodes, got {n}")
    p = min(1.0, avg_degree / (n - 1))
    adj: list[set[int]] = [set() for _ in range(n)]
    # first[u]: row-major index of pair (u, u + 1); first[n - 1]: pair count.
    first = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    u = 0
    while u < n - 1:
        hi = int(np.searchsorted(first, first[u] + _COIN_BLOCK, side="right")) - 1
        hi = max(hi, u + 1)
        hits = np.flatnonzero(rng.random(int(first[hi] - first[u])) < p) + first[u]
        rows = np.searchsorted(first, hits, side="right") - 1
        cols = hits - first[rows] + rows + 1
        for a, b in zip(rows.tolist(), cols.tolist()):
            adj[a].add(b)
            adj[b].add(a)
        u = hi
    return _finalize(n, adj)


def small_world_topology(
    n: int, avg_degree: float, rng: np.random.Generator, rewire: float = 0.1
) -> Topology:
    """Watts–Strogatz ring rewiring.

    A rewired edge goes to a uniform non-neighbour: the ``k``-th of the
    ascending nodes other than ``u`` and its neighbours, found by stepping
    ``k`` past the sorted excluded set (O(degree), not O(n)).
    """
    if not 0 <= rewire <= 1:
        raise ConfigError(f"rewire probability must be in [0,1], got {rewire}")
    k = max(2, int(round(avg_degree / 2)) * 2)  # even neighbour count
    if k >= n:
        raise ConfigError(f"avg_degree {avg_degree} too large for {n} nodes")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for off in range(1, k // 2 + 1):
            v = (u + off) % n
            adj[u].add(v)
            adj[v].add(u)
    for u in range(n):
        for off in range(1, k // 2 + 1):
            if rng.random() < rewire:
                v_old = (u + off) % n
                if v_old not in adj[u]:
                    continue
                free = n - 1 - len(adj[u])
                if not free:
                    continue
                v_new = int(rng.integers(0, free))
                for taken in sorted(adj[u] | {u}):
                    if taken > v_new:
                        break
                    v_new += 1
                adj[u].discard(v_old)
                adj[v_old].discard(u)
                adj[u].add(v_new)
                adj[v_new].add(u)
    return _finalize(n, adj)


def ring_lattice(n: int, k: int = 2) -> Topology:
    """Deterministic ring where every node links to ``k`` nearest on each side."""
    if n < 3:
        raise ConfigError(f"ring needs at least 3 nodes, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for off in range(1, k + 1):
            v = (u + off) % n
            adj[u].add(v)
            adj[v].add(u)
    return _finalize(n, adj)


def topology_for_degree(
    kind: str, n: int, avg_degree: float, rng: np.random.Generator
) -> Topology:
    """Dispatch by name: ``power_law`` | ``random`` | ``small_world`` | ``ring``."""
    if kind == "power_law":
        return power_law_topology(n, avg_degree, rng)
    if kind == "random":
        return random_topology(n, avg_degree, rng)
    if kind == "small_world":
        return small_world_topology(n, avg_degree, rng)
    if kind == "ring":
        return ring_lattice(n, max(1, int(avg_degree // 2)))
    raise ConfigError(f"unknown topology kind {kind!r}")
