"""Property-based tests for topology generators."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.net import topology as topology_module
from repro.net.flooding import flood_bfs
from repro.net.topology import (
    power_law_topology,
    random_topology,
    small_world_topology,
)

generator = st.sampled_from([power_law_topology, random_topology, small_world_topology])


@given(
    gen=generator,
    n=st.integers(min_value=10, max_value=150),
    degree=st.floats(min_value=2.0, max_value=6.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_generated_graphs_well_formed(gen, n, degree, seed):
    topo = gen(n, degree, np.random.default_rng(seed))
    assert topo.n == n
    assert topo.is_connected()
    for u in range(n):
        assert u not in topo.neighbors(u)
        for v in topo.neighbors(u):
            assert 0 <= v < n
            assert u in topo.neighbors(v)


@given(
    n=st.integers(min_value=10, max_value=100),
    seed=st.integers(min_value=0, max_value=2**31),
    ttl=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_flood_depths_bounded_by_ttl(n, seed, ttl):
    topo = power_law_topology(n, 4, np.random.default_rng(seed))
    result = flood_bfs(topo, 0, ttl)
    assert all(depth <= ttl for depth in result.visited.values())
    assert result.visited[0] == 0


@given(
    n=st.integers(min_value=10, max_value=100),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_flood_full_ttl_reaches_connected_graph(n, seed):
    """With TTL >= n every node of a connected graph is reached."""
    topo = power_law_topology(n, 4, np.random.default_rng(seed))
    result = flood_bfs(topo, 0, n)
    assert len(result.visited) == n


@given(
    n=st.integers(min_value=10, max_value=80),
    seed=st.integers(min_value=0, max_value=2**31),
    ttl=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_flood_paths_valid(n, seed, ttl):
    """Every reverse path must be a real walk of the topology."""
    topo = power_law_topology(n, 4, np.random.default_rng(seed))
    result = flood_bfs(topo, 0, ttl)
    for node in result.visited:
        path = result.path_to(node)
        assert path[0] == 0 and path[-1] == node
        assert len(path) == result.depth_of(node) + 1
        for u, v in zip(path, path[1:]):
            assert v in topo.neighbors(u)


@given(
    n=st.integers(min_value=10, max_value=80),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_monotone_reach_in_ttl(n, seed):
    topo = power_law_topology(n, 3, np.random.default_rng(seed))
    reaches = [flood_bfs(topo, 0, ttl).reach for ttl in range(5)]
    assert reaches == sorted(reaches)


# ---------------------------------------------------------------------------
# Oracles: the generators as they were before their draws were replayed or
# blocked.  The rewrites must give the same graph and leave the generator in
# the same state.
# ---------------------------------------------------------------------------


def oracle_power_law(n, avg_degree, rng):
    """The pre-replay Barabási–Albert build: one ``rng.integers`` per pick.

    Its stitching pass is left out; ``is_connected`` on the result checks
    that it had nothing to stitch.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 nodes, got {n}")
    if avg_degree < 1:
        raise ConfigError(f"avg_degree must be >= 1, got {avg_degree}")
    m_target = avg_degree / 2.0
    m_lo = max(1, int(np.floor(m_target)))
    m_hi = max(1, int(np.ceil(m_target)))
    hi_prob = m_target - m_lo if m_hi > m_lo else 0.0
    if m_hi >= n:
        raise ConfigError(f"avg_degree {avg_degree} too large for {n} nodes")
    adj = [set() for _ in range(n)]
    seed = m_hi + 1
    for u in range(seed):
        for v in range(u + 1, seed):
            adj[u].add(v)
            adj[v].add(u)
    repeated = []
    for u in range(seed):
        repeated.extend([u] * len(adj[u]))
    for u in range(seed, n):
        m = m_hi if (hi_prob > 0 and rng.random() < hi_prob) else m_lo
        targets = set()
        while len(targets) < m:
            pick = repeated[int(rng.integers(0, len(repeated)))]
            if pick != u:
                targets.add(pick)
        for v in targets:
            adj[u].add(v)
            adj[v].add(u)
            repeated.append(u)
            repeated.append(v)
    return tuple(tuple(sorted(s)) for s in adj)


def oracle_random(n, avg_degree, rng):
    """The pre-blocking G(n, p): every upper-triangle coin in one draw."""
    p = min(1.0, avg_degree / (n - 1))
    adj = [set() for _ in range(n)]
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    for u, v in zip(iu[mask], ju[mask]):
        adj[int(u)].add(int(v))
        adj[int(v)].add(int(u))
    return adj


def oracle_small_world(n, avg_degree, rng, rewire):
    """The pre-rewrite Watts–Strogatz: each rewire lists every non-neighbour."""
    k = max(2, int(round(avg_degree / 2)) * 2)
    adj = [set() for _ in range(n)]
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
                candidates = [w for w in range(n) if w != u and w not in adj[u]]
                if not candidates:
                    continue
                v_new = candidates[int(rng.integers(0, len(candidates)))]
                adj[u].discard(v_old)
                adj[v_old].discard(u)
                adj[u].add(v_new)
                adj[v_new].add(u)
    return adj


def _finalized(n, adj):
    """An oracle's sets through the generators' shared stitch-and-freeze."""
    return topology_module._finalize(n, adj).adjacency


def _rngs(seed, warmup):
    """Two identical generators, each after ``warmup`` scalar int draws, so
    some start with a pending uint32 half in numpy's buffer."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        for _ in range(warmup):
            rng.integers(0, 1000)
    return pair


@given(
    n=st.integers(min_value=2, max_value=3000),
    degree=st.floats(min_value=1.0, max_value=9.0),
    seed=st.integers(min_value=0, max_value=2**31),
    warmup=st.integers(min_value=0, max_value=3),
    chunk=st.sampled_from([1, 2, 3, 4096]),
)
@settings(max_examples=60, deadline=None)
def test_power_law_replay_matches_numpy_oracle(n, degree, seed, warmup, chunk):
    """The raw-word replay gives the oracle's graph and generator state.

    ``chunk`` shrinks the raw-word buffer so it refills mid-node.  With
    :func:`test_power_law_replay_rejection_boundary` this was checked to fail
    under each seeded mutation of the replay: dropping the uint32 carry
    (every uint32 from a fresh word), an off-by-one rejection threshold
    (``(2³² − L) % L + 1``; only the boundary test sees it), and forgetting
    the ``advance`` (generator left at the saved state).
    """
    expected_rng, rng = _rngs(seed, warmup)
    try:
        expected = oracle_power_law(n, degree, expected_rng)
    except ConfigError:
        with pytest.raises(ConfigError):
            power_law_topology(n, degree, rng)
        return
    with mock.patch.object(topology_module, "_RAW_CHUNK", chunk):
        topo = power_law_topology(n, degree, rng)
    assert topo.adjacency == expected
    assert rng.bit_generator.state == expected_rng.bit_generator.state
    assert topo.is_connected()


def test_power_law_replay_refills_mid_node_at_full_chunk():
    """At N = 3 000, ⟨k⟩ = 9 the replay reads ~10 000 words, so the default
    4 096-word buffer runs dry inside some node's picks."""
    expected_rng, rng = _rngs(2006, 1)
    expected = oracle_power_law(3000, 9.0, expected_rng)
    read = []
    real = topology_module._raw_words

    def counting(bit_generator):
        for word in real(bit_generator):
            read.append(word)
            yield word

    with mock.patch.object(topology_module, "_raw_words", counting):
        topo = power_law_topology(3000, 9.0, rng)
    assert len(read) > 2 * topology_module._RAW_CHUNK
    assert topo.adjacency == expected
    assert rng.bit_generator.state == expected_rng.bit_generator.state


@pytest.mark.parametrize("degree", [2, 4, 6, 8])
@pytest.mark.parametrize("below", [0, 1])
def test_power_law_replay_rejection_boundary(degree, below):
    """The first pick lands exactly on Lemire's threshold (accepted) or one
    step below it (rejected and redrawn).

    A random stream hits the threshold with probability ~L / 2³², so the
    pick is forced through numpy's carried uint32: ``uinteger`` is set to the
    ``x`` whose ``x · L mod 2³²`` is the wanted leftover.  ``L`` is the seed
    clique's endpoint count ``(m + 1) · m``, even, so leftovers step by its
    power of two.
    """
    m = degree // 2
    size = (m + 1) * m
    threshold = ((1 << 32) - size) % size
    twos = (size & -size).bit_length() - 1
    leftover = threshold - below * (1 << twos)
    if leftover < 0:
        pytest.skip("threshold 0: nothing is rejected")
    modulus = 1 << (32 - twos)
    x = (leftover >> twos) * pow(size >> twos, -1, modulus) % modulus
    assert x * size & 0xFFFFFFFF == leftover
    pair = []
    for _ in range(2):
        rng = np.random.default_rng(11)
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, x
        rng.bit_generator.state = state
        pair.append(rng)
    expected_rng, rng = pair
    expected = oracle_power_law(50, degree, expected_rng)
    topo = power_law_topology(50, degree, rng)
    assert topo.adjacency == expected
    assert rng.bit_generator.state == expected_rng.bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
def test_power_law_refuses_a_non_pcg64_stream(bit_generator):
    rng = np.random.Generator(bit_generator(7))
    before = rng.random(4)
    rng = np.random.Generator(bit_generator(7))
    with pytest.raises(ConfigError, match="PCG64"):
        power_law_topology(100, 4, rng)
    assert (rng.random(4) == before).all()


@given(
    n=st.integers(min_value=2, max_value=300),
    degree=st.floats(min_value=0.5, max_value=12.0),
    seed=st.integers(min_value=0, max_value=2**31),
    block=st.sampled_from([1, 7, 64, 1 << 20]),
)
@settings(max_examples=40, deadline=None)
def test_random_topology_blocks_match_one_draw(n, degree, seed, block):
    """Row blocks of coins give the one-draw oracle's graph and state."""
    expected_rng, rng = _rngs(seed, 0)
    expected = _finalized(n, oracle_random(n, degree, expected_rng))
    with mock.patch.object(topology_module, "_COIN_BLOCK", block):
        topo = random_topology(n, degree, rng)
    assert topo.adjacency == expected
    assert rng.bit_generator.state == expected_rng.bit_generator.state


@given(
    n=st.integers(min_value=3, max_value=120),
    degree=st.floats(min_value=1.0, max_value=12.0),
    seed=st.integers(min_value=0, max_value=2**31),
    rewire=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_small_world_kth_non_neighbour_matches_oracle(n, degree, seed, rewire):
    """Picking the k-th non-neighbour by stepping past the sorted excluded
    set gives the candidate-list oracle's graph and state — dense rings
    (no free node left) included."""
    k = max(2, int(round(degree / 2)) * 2)
    expected_rng, rng = _rngs(seed, 0)
    if k >= n:
        with pytest.raises(ConfigError):
            small_world_topology(n, degree, rng, rewire)
        return
    expected = _finalized(n, oracle_small_world(n, degree, expected_rng, rewire))
    topo = small_world_topology(n, degree, rng, rewire)
    assert topo.adjacency == expected
    assert rng.bit_generator.state == expected_rng.bit_generator.state
