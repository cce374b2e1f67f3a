"""Unit tests for TTL flooding."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.net.flooding import flood_bfs
from repro.net.topology import power_law_topology, ring_lattice


def test_ttl_zero_reaches_nobody():
    topo = ring_lattice(10, k=1)
    result = flood_bfs(topo, 0, 0)
    assert result.reach == 0
    assert result.messages == 0


def test_ring_reach_matches_ttl():
    """On a k=1 ring the flood reaches exactly 2·ttl nodes."""
    topo = ring_lattice(20, k=1)
    for ttl in (1, 2, 3):
        result = flood_bfs(topo, 0, ttl)
        assert result.reach == 2 * ttl


def test_ring_message_count():
    """k=1 ring: each frontier node forwards to exactly one new node."""
    topo = ring_lattice(20, k=1)
    result = flood_bfs(topo, 0, 3)
    # 2 messages at hop 1, then 2 per additional hop = 6.
    assert result.messages == 6


def test_depths_are_bfs_distances():
    topo = ring_lattice(20, k=1)
    result = flood_bfs(topo, 0, 4)
    assert result.depth_of(1) == 1
    assert result.depth_of(2) == 2
    assert result.depth_of(19) == 1
    assert result.depth_of(16) == 4


def test_path_to_walks_parents():
    topo = ring_lattice(20, k=1)
    result = flood_bfs(topo, 0, 4)
    assert result.path_to(3) == [0, 1, 2, 3]
    assert result.path_to(0) == [0]


def test_duplicates_charged_not_reforwarded():
    """A 3-clique floods: each edge carries the query both ways at hop 1."""
    from repro.net.topology import Topology

    topo = Topology(n=3, adjacency=((1, 2), (0, 2), (0, 1)))
    result = flood_bfs(topo, 0, 2)
    # hop1: 0->1, 0->2 (2 msgs); hop2: 1->2, 2->1 (duplicates, charged).
    assert result.reach == 2
    assert result.messages == 4


def test_offline_nodes_absorb_queries():
    topo = ring_lattice(10, k=1)
    result = flood_bfs(topo, 0, 3, online=lambda n: n != 1)
    visited = set(result.visited)
    assert 1 not in visited
    assert 2 not in visited  # behind the dead node
    assert 9 in visited  # the other direction unaffected


def test_negative_ttl_rejected():
    with pytest.raises(ConfigError):
        flood_bfs(ring_lattice(5, k=1), 0, -1)


def test_more_neighbors_more_messages():
    topo2 = power_law_topology(300, 2, np.random.default_rng(1))
    topo4 = power_law_topology(300, 4, np.random.default_rng(1))
    m2 = np.mean([flood_bfs(topo2, i, 4).messages for i in range(0, 300, 10)])
    m4 = np.mean([flood_bfs(topo4, i, 4).messages for i in range(0, 300, 10)])
    assert m4 > m2

