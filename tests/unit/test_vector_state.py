"""Unit coverage for the array kernel's state, network and guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, UnknownNodeError
from repro.net.topology import random_topology
from repro.vector.network import ArrayNetwork
from repro.vector.state import VectorTrustState


def make_state(**over) -> VectorTrustState:
    kw = dict(n=6, capacity=3, backup_capacity=2, max_relays=2)
    kw.update(over)
    return VectorTrustState(**kw)


# ---------------------------------------------------------------- state


def test_add_rejects_duplicates_and_overflow():
    st = make_state()
    assert st.add(0, 4, 1.0)
    assert not st.add(0, 4, 0.5)  # duplicate
    assert st.add(0, 5, 1.0) and st.add(0, 2, 1.0)
    assert not st.add(0, 1, 1.0)  # full
    assert st.live_hosts(0) == [4, 5, 2]
    assert st.total_rows() == 3


def test_park_is_most_recently_first_and_bounded():
    st = make_state()
    for ip in (1, 2, 3):
        st.add(0, ip, 0.8)
    assert st.park(0, 1)
    assert st.park(0, 2)
    assert st.backup_hosts(0) == [2, 1]  # most recent first
    assert st.park(0, 3)  # cache full: oldest (1) falls off
    assert st.backup_hosts(0) == [3, 2]
    assert st.live_hosts(0) == []
    assert st.backups_parked == 3


def test_park_discards_worthless_rows():
    st = make_state()
    st.add(0, 1, 0.0)
    assert not st.park(0, 1)  # non-positive expertise: removed outright
    assert st.backup_hosts(0) == []
    no_cache = make_state(backup_capacity=0)
    no_cache.add(0, 1, 0.9)
    assert not no_cache.park(0, 1)


def test_restore_preserves_value_and_updates():
    st = make_state()
    st.add(0, 1, 0.8)
    st.live_upd[0, 0] = 7
    st.park(0, 1)
    assert st.restore(0, 1)
    assert st.live_hosts(0) == [1]
    assert float(st.live_val[0, 0]) == 0.8
    assert int(st.live_upd[0, 0]) == 7
    assert st.backups_restored == 1


def test_restore_into_full_list_rotates_backup_to_end():
    st = make_state()
    for ip in (1, 2, 3):
        st.add(0, ip, 0.8)
    st.add(1, 9, 0.8)
    st.park(1, 9)
    # Fill peer 1's list so the restore target has no room.
    st = make_state()
    st.add(0, 9, 0.8)
    st.park(0, 9)
    st.add(0, 8, 0.8)
    st.park(0, 8)
    for ip in (1, 2, 3):
        st.add(0, ip, 0.8)
    assert st.backup_hosts(0) == [8, 9]
    assert not st.restore(0, 8)  # live list full
    assert st.backup_hosts(0) == [9, 8]  # rotated to the end, kept


def test_readd_purges_backup_row():
    st = make_state()
    st.add(0, 1, 0.8)
    st.park(0, 1)
    assert st.backup_hosts(0) == [1]
    assert st.add(0, 1, 1.0)
    assert st.backup_hosts(0) == []


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
        st.park(0, 2)
        st.park(0, 4)
        if tracked:
            st.materialize_paths(
                np.full((6, 2), -1, dtype=np.int32), np.zeros(6, dtype=np.int32)
            )
    # Already-listed (1, 3), parked (2, 4), new (0, 5) and repeated hosts.
    hosts = rng.integers(0, 6, size=int(rng.integers(0, 8)))
    paths = rng.integers(0, 6, size=(hosts.size, 2)).astype(np.int32)
    plens = rng.integers(0, 3, size=hosts.size).astype(np.int32)
    added = many.add_many(0, hosts, 1.0, paths, plens)
    assert added == sum(
        loop.add(0, int(ip), 1.0, relays=paths[i, : plens[i]])
        for i, ip in enumerate(hosts)
    )
    for name in ("live_ip", "live_val", "live_upd", "live_len", "back_ip", "back_len"):
        assert np.array_equal(getattr(many, name), getattr(loop, name)), name
    if tracked:
        assert np.array_equal(many.live_plen, loop.live_plen)
        assert np.array_equal(many.live_path, loop.live_path)


def test_evict_below_compacts_in_order():
    st = make_state()
    st.add(0, 1, 0.9)
    st.add(0, 2, 0.1)
    st.add(0, 3, 0.7)
    assert st.evict_below(0, 0.4) == 1
    assert st.live_hosts(0) == [1, 3]
    assert st.evictions == 1
    assert st.evict_below(0, 0.4) == 0


def test_materialize_paths_backfills_owner_paths():
    st = make_state()
    st.add(0, 2, 1.0)
    st.add(0, 3, 1.0)
    own_path = np.full((6, 2), -1, dtype=np.int32)
    own_plen = np.zeros(6, dtype=np.int32)
    own_path[2] = [4, 5]
    own_plen[2] = 2
    own_path[3, 0] = 1
    own_plen[3] = 1
    before = st.nbytes()
    st.materialize_paths(own_path, own_plen)
    assert st.paths_tracked
    assert st.nbytes() > before
    assert list(st.live_path[0, 0, :2]) == [4, 5]
    assert int(st.live_plen[0, 0]) == 2
    assert int(st.live_plen[0, 1]) == 1
    # Idempotent: a second call must not wipe later mutations.
    st.add(0, 5, 1.0, relays=[0])
    st.materialize_paths(own_path, own_plen)
    assert int(st.live_plen[0, 2]) == 1


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
    net = make_network()
    net.faults = None  # explicit None is the no-op the builder uses
    with pytest.raises(ConfigError):
        net.faults = object()


# ---------------------------------------------------------------- system guards


def test_array_system_rejects_unsupported_options():
    from repro.vector.system import ArrayHiRepSystem
    from repro.workloads.scenarios import default_config

    cfg = default_config(network_size=40, seed=3).with_(
        trusted_agents=6, refill_threshold=4, agents_queried=3, onion_relays=2
    )
    with pytest.raises(ConfigError):
        ArrayHiRepSystem(cfg, faults=object())
    with pytest.raises(ConfigError):
        ArrayHiRepSystem(cfg.with_(query_timeout_ms=50.0))
    with pytest.raises(ConfigError):
        ArrayHiRepSystem(cfg, bootstrap_mode="magic")


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
            st.live.pop(int(p), st.row_of(int(p), int(p)))
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
