"""Unit coverage for the array kernel's state, network and guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, UnknownNodeError
from repro.net.topology import random_topology
from repro.vector.network import ArrayNetwork
from repro.vector.state import OnionTable, VectorTrustState


def make_state(**over) -> VectorTrustState:
    kw = dict(n=6, capacity=3, backup_capacity=2)
    kw.update(over)
    return VectorTrustState(**kw)


def park(st: VectorTrustState, p: int, ip: int) -> bool:
    """Agent ``ip`` went offline: one row of peer ``p`` through park_where."""
    return bool(st.park_where(p, st.live.ip[p, : st.live.len[p]] == ip))


def relays_of(table: OnionTable, oid) -> list[int]:
    """The snapshot a row names: ``table[oid]``."""
    (row,) = table.rows([int(oid)])
    return row[1 : 1 + row[0]]


# ---------------------------------------------------------------- state


def test_add_rejects_duplicates_and_overflow():
    st = make_state()
    assert st.add(0, 4, 1.0)
    assert not st.add(0, 4, 0.5)  # duplicate
    assert st.add(0, 5, 1.0) and st.add(0, 2, 1.0)
    assert not st.add(0, 1, 1.0)  # full
    assert st.live.hosts(0) == [4, 5, 2]
    assert int(st.live_len.sum()) == 3


def test_park_is_most_recently_first_and_bounded():
    st = make_state()
    for ip in (1, 2, 3):
        st.add(0, ip, 0.8)
    assert park(st, 0, 1)
    assert park(st, 0, 2)
    assert st.back.hosts(0) == [2, 1]  # most recent first
    assert park(st, 0, 3)  # cache full: oldest (1) falls off
    assert st.back.hosts(0) == [3, 2]
    assert st.live.hosts(0) == []
    assert st.backups_parked == 3


def test_park_discards_worthless_rows():
    st = make_state()
    st.add(0, 1, 0.0)
    assert not park(st, 0, 1)  # non-positive expertise: removed outright
    assert st.back.hosts(0) == []
    no_cache = make_state(backup_capacity=0)
    no_cache.add(0, 1, 0.9)
    assert not park(no_cache, 0, 1)


def test_restore_preserves_value_and_updates():
    st = make_state()
    st.add(0, 1, 0.8)
    st.live_upd[0, 0] = 7
    park(st, 0, 1)
    assert st.restore(0, 1)
    assert st.live.hosts(0) == [1]
    assert float(st.live_val[0, 0]) == 0.8
    assert int(st.live_upd[0, 0]) == 7
    assert st.backups_restored == 1


def test_restore_into_full_list_rotates_backup_to_end():
    st = make_state()
    for ip in (1, 2, 3):
        st.add(0, ip, 0.8)
    st.add(1, 9, 0.8)
    park(st, 1, 9)
    # Fill peer 1's list so the restore target has no room.
    st = make_state()
    st.add(0, 9, 0.8)
    park(st, 0, 9)
    st.add(0, 8, 0.8)
    park(st, 0, 8)
    for ip in (1, 2, 3):
        st.add(0, ip, 0.8)
    assert st.back.hosts(0) == [8, 9]
    assert not st.restore(0, 8)  # live list full
    assert st.back.hosts(0) == [9, 8]  # rotated to the end, kept


def test_readd_purges_backup_row():
    st = make_state()
    st.add(0, 1, 0.8)
    park(st, 0, 1)
    assert st.back.hosts(0) == [1]
    assert st.add(0, 1, 1.0)
    assert st.back.hosts(0) == []


@pytest.mark.parametrize("tracked", [False, True])
@pytest.mark.parametrize("seed", range(25))
def test_add_many_equals_one_by_one_add(seed, tracked):
    """add_many is the add loop as one slice write: same rows in the same
    order, same count, same snapshots, backup rows purged alike."""
    rng = np.random.default_rng(seed)
    many, loop = make_state(capacity=5), make_state(capacity=5)
    for st in (many, loop):
        for ip in (1, 2, 3, 4):
            st.add(0, ip, 0.8)
        park(st, 0, 2)
        park(st, 0, 4)
        if tracked:
            st.track_snapshots()
    # Already-listed (1, 3), parked (2, 4), new (0, 5) and repeated hosts.
    hosts = rng.integers(0, 6, size=int(rng.integers(0, 8)))
    oids = rng.integers(0, 40, size=hosts.size).astype(np.int32)
    added = many.add_many(0, hosts, 1.0, oids)
    assert added == sum(
        loop.add(0, int(ip), 1.0, oid=int(oids[i])) for i, ip in enumerate(hosts)
    )
    for name in ("live_ip", "live_val", "live_upd", "live_len", "back_ip", "back_len"):
        assert np.array_equal(getattr(many, name), getattr(loop, name)), name
    if tracked:
        assert np.array_equal(many.live.oid, loop.live.oid)
        assert np.array_equal(many.back.oid, loop.back.oid)


def test_evict_below_compacts_in_order():
    st = make_state()
    st.add(0, 1, 0.9)
    st.add(0, 2, 0.1)
    st.add(0, 3, 0.7)
    assert st.evict_below(0, 0.4) == 1
    assert st.live.hosts(0) == [1, 3]
    assert st.evictions == 1
    assert st.evict_below(0, 0.4) == 0


def test_track_snapshots_starts_every_row_at_its_owners_onion():
    st = make_state()
    st.add(0, 2, 1.0)
    st.add(0, 3, 1.0)
    st.add(1, 4, 0.8)
    park(st, 1, 4)  # a backup row older than the first departure
    own_path = np.full((6, 2), -1, dtype=np.int32)
    own_plen = np.zeros(6, dtype=np.int32)
    own_path[2] = [4, 5]
    own_plen[2] = 2
    own_path[3, 0] = 1
    own_plen[3] = 1
    before = st.nbytes()
    st.track_snapshots()
    table = OnionTable(own_plen, own_path)
    assert st.tracked
    assert st.nbytes() == before + 4 * st.n * (st.capacity + st.backup_capacity)
    assert relays_of(table, st.live.oid[0, 0]) == [4, 5]
    assert relays_of(table, st.live.oid[0, 1]) == [1]
    assert relays_of(table, st.back.oid[1, 0]) == []
    # Later rebuilds leave the snapshot alone: it names a row, not the owner.
    own_path[2] = [0, 1]
    assert table.append([0, 1]) == 6
    assert relays_of(table, st.live.oid[0, 0]) == [4, 5]
    # Idempotent: a second call must not wipe later mutations.
    st.add(0, 5, 1.0, oid=table.append([0]))
    st.track_snapshots()
    assert relays_of(table, st.live.oid[0, 2]) == [0]
    # A parked and restored record keeps its id.
    park(st, 0, 5)
    assert relays_of(table, st.back.oid[0, 0]) == [0]
    assert st.restore(0, 5) and relays_of(table, st.live.oid[0, 2]) == [0]


def test_track_snapshots_leaves_an_empty_backup_region_untouched():
    st = make_state()
    st.add(0, 2, 1.0)
    st.track_snapshots()
    assert np.array_equal(st.live.oid, st.live_ip)
    assert not st.back.oid.any()  # zeros: nothing parked, nothing copied


def test_add_without_an_onion_id_is_refused_once_tracked():
    """Before tracking a row's snapshot is implied; after it, a row without
    one could never be reached — the old silent default stored exactly that."""
    st = make_state()
    assert st.add(0, 2, 1.0)
    st.track_snapshots()
    with pytest.raises(ConfigError, match="onion id"):
        st.add(0, 3, 1.0)
    with pytest.raises(ConfigError, match="onion id"):
        st.add(0, 2, 1.0)  # even where the add would have been a no-op
    with pytest.raises(ConfigError, match="onion id"):
        st.add_many(0, np.array([3, 4]), 1.0)
    assert st.live.hosts(0) == [2]
    assert st.add(0, 3, 1.0, oid=3)


def test_onion_table_is_append_only_and_grows():
    own_path = np.array([[1, 2], [0, -1], [-1, -1]], dtype=np.int32)
    table = OnionTable(np.array([2, 1, 0], dtype=np.int32), own_path)
    assert table.count == 3 and table.nbytes() == 3 * 3 * 4
    assert [relays_of(table, oid) for oid in range(3)] == [[1, 2], [0], []]
    stored = {}
    for i in range(40):  # past the first allocation, twice
        relays = [i % 3] * (i % 3)
        stored[table.append(relays)] = relays
    assert list(stored) == list(range(3, 43))
    assert all(relays_of(table, oid) == relays for oid, relays in stored.items())
    assert [relays_of(table, oid) for oid in range(3)] == [[1, 2], [0], []]
    assert table.rows(np.array([0, 41]))[1][:3] == [2, 2, 2]
    assert table.nbytes() == 43 * 3 * 4


def test_park_where_moves_a_block_as_it_moves_its_rows_one_by_one():
    gone = np.array([True, False, True, True, False])
    states = []
    for block in (True, False):
        st = make_state(capacity=5)
        for ip, value in zip((1, 2, 3, 4, 5), (0.8, 0.7, 0.0, 0.6, 0.5)):
            st.add(0, ip, value)
        st.track_snapshots()
        st.live.oid[0, :5] = [11, 12, 13, 14, 15]
        park(st, 0, 5)
        if block:
            st.park_where(0, gone[:4])
        else:
            for ip in (1, 3, 4):
                park(st, 0, ip)
        states.append(st)
    block, loop = states
    assert block.live.hosts(0) == [2] and block.back.hosts(0) == [4, 1]
    assert block.back.oid[0].tolist() == [14, 11]
    assert block.backups_parked == loop.backups_parked == 3
    for got, want in ((block.live, loop.live), (block.back, loop.back)):
        # ip is -1 beyond len; the other columns keep whatever was there.
        assert np.array_equal(got.ip, want.ip) and np.array_equal(got.len, want.len)
        m = int(got.len[0])
        for mine, theirs in zip(got.columns, want.columns, strict=True):
            assert np.array_equal(mine[0, :m], theirs[0, :m])


def test_state_validates_capacities():
    with pytest.raises(ConfigError):
        make_state(capacity=0)
    with pytest.raises(ConfigError):
        make_state(backup_capacity=-1)


# ---------------------------------------------------------------- network


def make_network(n: int = 30, seed: int = 11) -> ArrayNetwork:
    topo = random_topology(n, avg_degree=4.0, rng=np.random.default_rng(5))
    return ArrayNetwork(topo, np.random.default_rng(seed))


def test_network_node_shim_and_liveness():
    net = make_network()
    assert net.n == 30
    node = net.node(3)
    assert node.node_index == 3 and node.online
    with pytest.raises(UnknownNodeError):
        net.node(99)
    net.set_online(3, False)
    assert not net.is_online(3)
    assert 3 not in net.online_nodes()
    assert net.any_offline
    net.set_online(3, True)
    assert not net.any_offline


def test_network_first_offline_fires_once():
    net = make_network()
    fired = []
    net.on_first_offline = lambda: fired.append(True)
    net.set_online(1, False)
    net.set_online(2, False)
    net.set_online(1, True)
    net.set_online(1, False)
    assert fired == [True]


def test_network_rejects_fault_planes():
    from repro.net.faults import FaultPlane, MessageLoss

    net = make_network()
    with pytest.raises(ConfigError, match="fault planes; use 'hirep'$"):
        FaultPlane([MessageLoss(0.1)]).install(net)
    assert not hasattr(net, "faults")


# ---------------------------------------------------------------- system guards


def test_array_system_rejects_unsupported_options():
    from repro.vector.system import ArrayHiRepSystem
    from repro.workloads.scenarios import default_config

    cfg = default_config(network_size=40, seed=3).with_(
        trusted_agents=6, refill_threshold=4, agents_queried=3, onion_relays=2
    )
    with pytest.raises(ConfigError, match="query_timeout_ms; use 'hirep'$"):
        ArrayHiRepSystem(cfg.with_(query_timeout_ms=50.0))
    with pytest.raises(ConfigError):
        ArrayHiRepSystem(cfg, bootstrap_mode="magic")


def _count_onion_send(mask, relays: list[int], owner: int) -> tuple[int, bool]:
    """The hop rule as ``ArrayHiRepSystem._count_onion_send`` stated it, one
    send at a time over the numpy liveness mask; kept as the reference for
    ``_send_leg``.  The wire walks the path entry-first (= reversed storage
    order); each hop to an online node costs one message, the first offline
    relay swallows the message, and delivery needs the owner online too."""
    messages = 1
    alive = True
    for relay in reversed(relays):
        if mask[relay]:
            messages += 1
        else:
            alive = False
            break
    return messages, alive and bool(mask[owner])


def test_send_leg_bills_a_leg_by_the_onion_send_rule():
    """A dead entry, middle or innermost relay, a dead owner, a relay-less
    onion and a clean path, billed in one call and in a shuffled row order."""
    from repro.vector.system import ArrayHiRepSystem
    from repro.workloads.scenarios import default_config

    cfg = default_config(network_size=60, seed=3).with_(
        trusted_agents=8, refill_threshold=4, agents_queried=3, onion_relays=3
    )
    system = ArrayHiRepSystem(cfg, bootstrap_mode="seeded")
    system.bootstrap()
    st, net = system.state, system.network
    req = 0
    hosts = st.live.hosts(req)[:6]
    assert len(hosts) == 6
    spare = [i for i in range(1, 60) if i not in hosts]
    net.set_online(spare.pop(), False)  # the first departure: ids from here on
    assert st.tracked and np.array_equal(st.live.oid[req, :6], hosts)
    paths = [spare[0:3], spare[3:6], spare[6:9], spare[9:12], [], spare[12:15]]
    for row, path in enumerate(paths):
        st.live.oid[req, row] = system._onions.append(path)
    for dead in (paths[0][2], paths[1][1], paths[2][0], hosts[3]):
        net.set_online(dead, False)

    want = [_count_onion_send(net.online_mask, path, host) for path, host in zip(paths, hosts)]
    assert want == [(1, False), (2, False), (3, False), (4, False), (1, True), (4, True)]
    messages, hops = system._send_leg(req, list(range(6)), hosts)
    assert messages == sum(sent for sent, _ in want) == 15
    assert hops == [0, 0, 0, 0, 1, 4]  # what a delivered send took, else 0
    order = [5, 2, 4, 0]
    messages, hops = system._send_leg(req, order, [hosts[row] for row in order])
    assert (messages, hops) == (4 + 3 + 1 + 1, [4, 0, 1, 0])
    # The owner of a path that already lost the message changes nothing.
    net.set_online(hosts[0], False)
    assert system._send_leg(req, [0], [hosts[0]]) == (1, [0])


def test_telemetry_capture_records_spans_and_metrics(tmp_path, capsys):
    """``capture()`` around an array build yields what an analytically
    billed executor has — transaction spans and the metric snapshot, no
    per-message events — and the bundle round-trips through the CLI."""
    from repro.core.registry import build_system
    from repro.obs.bundle import load_bundle, store_bundle
    from repro.obs.capture import capture
    from repro.obs.cli import main as obs_main
    from repro.workloads.scenarios import default_config

    with capture() as plane:
        system = build_system("hirep-array", default_config(network_size=40, seed=3))
        system.run(50)
    spans = plane.spans.spans("transaction")
    assert len(spans) == 50 and all(s.finished for s in spans)
    # the clock is cumulative response time: spans tile the Fig. 8 axis
    assert spans[-1].end_ms == pytest.approx(float(system.response_times.cumulative()[-1]))
    assert plane.tracer.recorded == 0
    snapshot = plane.collect()
    assert snapshot["transactions"] == 50
    assert snapshot["net.messages.total"] == system.counter.total
    assert snapshot["trust.mse"] == pytest.approx(system.mse.mse())

    _key, path = store_bundle(plane, tmp_path)
    assert len(load_bundle(path).spans) == 150  # transaction + query + report
    assert obs_main(["summarize", str(path)]) == 0
    assert "transaction" in capsys.readouterr().out


def test_seeded_bootstrap_populates_every_online_peer():
    from repro.vector.system import ArrayHiRepSystem
    from repro.workloads.scenarios import default_config

    cfg = default_config(network_size=60, seed=3).with_(
        trusted_agents=6, refill_threshold=4, agents_queried=3, onion_relays=2
    )
    system = ArrayHiRepSystem(cfg, bootstrap_mode="seeded")
    system.bootstrap()
    st = system.state
    lens = st.live_len[np.asarray(system.network.online_nodes())]
    assert int(lens.min()) > 0
    # Seeded bootstrap bypasses the protocol: no discovery traffic at all.
    assert system.counter.total == 0
    system.run(5)
    assert len(system.outcomes) == 5


def _seed_with_modulo(system) -> int:
    """`_bootstrap_seeded` as first written (int64, `%`, whole-matrix
    `np.where`), kept as the oracle; returns how many peers hit themselves."""
    cfg, st, n = system.config, system.state, system.config.network_size
    rng = system.world.rng_workload
    relays = min(cfg.onion_relays, max(n - 1, 0))
    shifts = rng.integers(0, n - 1, size=n)
    offsets = (shifts[:, None] + np.arange(relays)[None, :]) % (n - 1)
    system._own_path[:, :relays] = (np.arange(n)[:, None] + 1 + offsets) % n
    capable = np.asarray(system.network.agent_capable_nodes(), dtype=np.int64)
    count = int(capable.size)
    fill = min(st.capacity, count)
    start = rng.integers(0, count, size=n)
    agents = capable[(start[:, None] + np.arange(fill)[None, :]) % count]
    self_hit = agents == np.arange(n)[:, None]
    if count > fill:
        agents = np.where(self_hit, capable[(start + fill) % count][:, None], agents)
    st.live_ip[:, :fill] = agents
    st.live_val[:, :fill] = cfg.initial_expertise
    st.live_upd[:, :fill] = 0
    st.live_len[:] = fill
    if count <= fill:
        for p in np.flatnonzero(self_hit.any(axis=1)):
            st.live.pop(int(p), st.live.find(int(p), int(p)))
    return int(self_hit.any(axis=1).sum())


@pytest.mark.parametrize("n", [50, 700, 5000])
def test_seeded_bootstrap_equals_the_modulo_formulation(n):
    from repro.vector.system import ArrayHiRepSystem
    from repro.workloads.scenarios import default_config

    cfg = default_config(network_size=n, seed=11)
    system = ArrayHiRepSystem(cfg, bootstrap_mode="seeded")
    oracle = ArrayHiRepSystem(cfg, bootstrap_mode="seeded")
    system.bootstrap()
    assert _seed_with_modulo(oracle) > 0  # some peer landed on itself
    capable = len(system.network.agent_capable_nodes())
    # n = 50 is the tiny-population branch: the window is every capable node
    assert (capable <= system.state.capacity) == (n == 50)
    for column in ("ip", "val", "upd", "len"):
        got, want = getattr(system.state.live, column), getattr(oracle.state.live, column)
        assert got.dtype == want.dtype and np.array_equal(got, want), column
    assert np.array_equal(system._own_path, oracle._own_path)
    # and both drew the same amount from the workload stream
    assert system.world.rng_workload.random() == oracle.world.rng_workload.random()


@pytest.mark.parametrize("leave_prob", [0.0, 0.05])
def test_seeded_array_run_builds_only_the_peer_streams_it_reads(leave_prob):
    from repro.net.churn import ChurnModel
    from repro.vector.system import ArrayHiRepSystem
    from repro.workloads.scenarios import default_config

    cfg = default_config(network_size=400, seed=5)
    churn = ChurnModel(leave_prob=leave_prob, rejoin_prob=0.4) if leave_prob else None
    system = ArrayHiRepSystem(cfg, churn=churn, bootstrap_mode="seeded")
    system.bootstrap()
    streams = system._peer_rngs
    assert len(streams) == 400

    def built() -> set[int]:
        return {i for i, rng in enumerate(streams._built) if rng is not None}

    assert built() == set()
    # Only a requestor's stream and an onion rebuild's (host and relays,
    # each relay answering a handshake) are drawn from.
    onion_nodes: set[int] = set()
    rebuild = system._rebuild_onion

    def recording_rebuild(host: int) -> None:
        rebuild(host)
        onion_nodes.add(host)
        onion_nodes.update(system._own_path[host, : system._own_plen[host]].tolist())

    system._rebuild_onion = recording_rebuild
    system.run(30)
    requestors = {outcome.requestor for outcome in system.outcomes}
    assert 0 < len(built()) <= 30 + len(onion_nodes)
    assert built() <= requestors | onion_nodes
    assert bool(onion_nodes) == bool(leave_prob)
