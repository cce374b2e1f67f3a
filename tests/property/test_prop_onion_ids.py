"""Property test: a row's onion id against the eager copy it replaced.

Until this test was written a trust row *held* its onion snapshot:
:class:`~repro.vector.state.Region` had a ``plen`` and a ``(n, rows, R)``
``path`` column, filled by one gather at the first departure and copied
cell by cell through every pop, insert, keep and adopt.  A row now holds an
``oid`` naming a row of an append-only :class:`~repro.vector.state.
OnionTable`.  The old columns are kept here, as :class:`Eager`, and are the
oracle: hypothesis picks ``(C, B)``, a script length, when (if ever)
snapshots start being tracked and a seeded ``Random`` that plays, on all
peers of a small state, what :class:`~repro.vector.system.ArrayHiRepSystem`
does to snapshots —

* ``rebuild``: a host draws itself a new onion (table append, ``own_oid``
  bump | ``own_path`` / ``own_plen`` overwrite);
* ``refresh``: answering rows adopt their agents' current onions
  (``oid[p, rows] = own_oid[hosts]`` | per-row path copy);
* ``adopt``: discovery — winners' snapshots come from another peer's rows,
  *stale or not*, or from an offering agent's current onion
  (``np.where`` over ids | over paths), then ``add_many``;
* ``add``, ``park`` (``park_where`` | a pop and a front-insert per offline
  row), ``restore``, ``drop``, expertise ``score`` + ``evict``

— on both states.  After every op every peer's live and backup rows must
agree on (ip, value, updates) and, once tracked, on the snapshot:
``table[oid] == path[:plen]``; return values and the three counters must
agree too.

Shown to fail under each of these seeded mutations of ``vector/state.py``:
``OnionTable.append`` that does not advance ``count`` (every rebuild lands
on one row); ``append`` that grows into a fresh array without the old rows;
``append`` that leaves the count cell unwritten; ``OnionTable.__init__``
that files peer ``i``'s path under id ``n - 1 - i``; ``Region.track`` that
starts a non-empty backup region at zeros; ``pop`` that shifts only
``ip``/``val``/``upd``; ``insert`` that shifts the ``oid`` column but does
not write the record's; ``push`` that keeps the block in park order;
``keep`` that compacts every column but the last; ``add_many`` that writes
``oids[:k]`` instead of ``oids[new]``; ``add`` that stores ``ip`` for the
id.  And under these of the test's own replay of the system's lines:
``refresh`` from ``arange`` instead of ``own_oid``; ``adopt`` with the
``np.where`` arms swapped.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantics import eviction_mask
from repro.vector.state import OnionTable, VectorTrustState

PEERS = 7  # peers and agent hosts are the same nodes 0 … 6
RELAYS = 3
THETA = 0.4
MIX = {
    "rebuild": 5, "refresh": 4, "adopt": 4, "add": 3, "park": 5,
    "restore": 3, "drop": 1, "score": 2, "evict": 1,
}


class EagerRegion:
    """``Region`` as it was: the snapshot is two more columns, copied."""

    plen = path = None

    def __init__(self, n, rows):
        self.rows = rows
        self.ip = np.full((n, rows), -1, dtype=np.int32)
        self.val = np.zeros((n, rows))
        self.upd = np.zeros((n, rows), dtype=np.int32)
        self.len = np.zeros(n, dtype=np.int32)
        self.columns = [self.ip, self.val, self.upd]

    def track(self, own_path, own_plen):
        hosts = np.clip(self.ip, 0, None)
        self.plen = own_plen[hosts].astype(np.int32)
        self.path = own_path[hosts].astype(np.int32)
        self.columns += [self.plen, self.path]

    def find(self, p, ip):
        hits = np.flatnonzero(self.ip[p, : self.len[p]] == ip)
        return int(hits[0]) if hits.size else -1

    def pop(self, p, row):
        last = int(self.len[p]) - 1
        record = []
        for col in self.columns:
            cell = col[p, row]
            record.append(cell.copy() if cell.ndim else cell)
            col[p, row:last] = col[p, row + 1 : last + 1]
        self.ip[p, last] = -1
        self.len[p] = last
        return tuple(record)

    def insert(self, p, row, record):
        m = min(int(self.len[p]) + 1, self.rows)
        for col, value in zip(self.columns, record, strict=True):
            col[p, row + 1 : m] = col[p, row : m - 1]
            col[p, row] = value
        self.len[p] = m

    def keep(self, p, mask):
        m = int(self.len[p])
        kept = int(np.count_nonzero(mask))
        for col in self.columns:
            col[p, :kept] = col[p, :m][mask]
        self.ip[p, kept:m] = -1
        self.len[p] = kept


class Eager:
    """``VectorTrustState`` as it was, snapshot handling and list rules."""

    tracked = False

    def __init__(self, n, capacity, backup):
        self.capacity, self.backup_capacity = capacity, backup
        self.live, self.back = EagerRegion(n, capacity), EagerRegion(n, backup)
        self.evictions = self.backups_parked = self.backups_restored = 0

    def add(self, p, ip, value, relays=()):
        m = int(self.live.len[p])
        if m >= self.capacity or self.live.find(p, ip) >= 0:
            return False
        record = (ip, value, 0)
        if self.tracked:
            path = np.full(RELAYS, -1, dtype=np.int32)
            path[: len(relays)] = relays
            record += (len(relays), path)
        self.live.insert(p, m, record)
        self.drop_backup(p, ip)
        return True

    def add_many(self, p, hosts, value, paths=None, plens=None):
        live = self.live
        m = int(live.len[p])
        new = np.flatnonzero(~(hosts[:, None] == live.ip[p, :m]).any(axis=1))
        new = new[np.sort(np.unique(hosts[new], return_index=True)[1])]
        new = new[: self.capacity - m]
        k = int(new.size)
        if k == 0:
            return 0
        live.ip[p, m : m + k] = hosts[new]
        live.val[p, m : m + k] = value
        live.upd[p, m : m + k] = 0
        if self.tracked:
            live.plen[p, m : m + k] = plens[new]
            live.path[p, m : m + k] = np.where(
                np.arange(RELAYS) < plens[new, None], paths[new], -1
            )
        live.len[p] = m + k
        for ip in hosts[new].tolist():
            self.drop_backup(p, ip)
        return k

    def evict_below(self, p, threshold):
        mask = eviction_mask(self.live.val[p, : self.live.len[p]], threshold)
        count = int(np.count_nonzero(mask))
        if count:
            self.live.keep(p, ~mask)
            self.evictions += count
        return count

    def park(self, p, ip):
        row = self.live.find(p, ip)
        if row < 0:
            return False
        record = self.live.pop(p, row)
        if record[1] <= 0.0 or self.backup_capacity == 0:
            return False
        self.back.insert(p, 0, record)
        self.backups_parked += 1
        return True

    def restore(self, p, ip):
        row = self.back.find(p, ip)
        if row < 0:
            return False
        record = self.back.pop(p, row)
        m = int(self.live.len[p])
        if m >= self.capacity:
            self.back.insert(p, int(self.back.len[p]), record)
            return False
        self.live.insert(p, m, record)
        self.backups_restored += 1
        return True

    def drop_backup(self, p, ip):
        row = self.back.find(p, ip)
        if row >= 0:
            self.back.pop(p, row)

    def materialize_paths(self, own_path, own_plen):
        if not self.tracked:
            self.live.track(own_path, own_plen)
            self.back.track(own_path, own_plen)
            self.tracked = True


class Both:
    """One deployment's snapshots twice: eager copies and ids into a table."""

    def __init__(self, capacity, backup, rnd):
        self.rnd = rnd
        self.old = Eager(PEERS, capacity, backup)
        self.new = VectorTrustState(PEERS, capacity, backup)
        # Every peer's own current onion (ArrayHiRepSystem._own_path/_own_plen).
        self.own_path = np.full((PEERS, RELAYS), -1, dtype=np.int32)
        self.own_plen = np.zeros(PEERS, dtype=np.int32)
        self.table = self.own_oid = None
        for host in range(PEERS):
            self.rebuild(host)

    # -- what the system does around the state -------------------------------

    def rebuild(self, host):
        """_rebuild_onion: a fresh path, shorter ones included."""
        relays = [self.rnd.randrange(PEERS) for _ in range(self.rnd.randint(0, RELAYS))]
        self.own_plen[host] = len(relays)
        self.own_path[host, : len(relays)] = relays
        if self.table is not None:
            self.own_oid[host] = self.table.append(relays)

    def track(self):
        """_track_snapshots, on the first departure."""
        self.old.materialize_paths(self.own_path, self.own_plen)
        self.new.track_snapshots()
        if self.table is None:
            self.table = OnionTable(self.own_plen, self.own_path)
            self.own_oid = np.arange(PEERS, dtype=np.int32)

    def refresh(self, p, rows):
        """_execute's response leg: the answering rows adopt fresh onions."""
        if not self.new.tracked:
            return
        hosts = self.new.live.ip[p, rows]
        self.new.live.oid[p, rows] = self.own_oid[hosts]
        for row, host in zip(rows, hosts.tolist()):
            plen = int(self.own_plen[host])
            self.old.live.plen[p, row] = plen
            self.old.live.path[p, row, :] = -1
            self.old.live.path[p, row, :plen] = self.own_path[host, :plen]

    def adopt(self, p, source, rows, offered):
        """_discover_for's adopt: ``rows`` of peer ``source``'s list as
        they stand (stale snapshots and all), then self-offering agents."""
        listed = np.arange(len(rows) + len(offered)) < len(rows)
        hosts = np.array(self.new.live.ip[source, rows].tolist() + offered, dtype=np.int64)
        rows = np.array(rows + [0] * len(offered), dtype=np.int64)
        keep = hosts != p
        listed, rows, hosts = listed[keep], rows[keep], hosts[keep]
        if not self.new.tracked:
            return self.old.add_many(p, hosts, 1.0), self.new.add_many(p, hosts, 1.0)
        paths = np.where(
            listed[:, None], self.old.live.path[source, rows], self.own_path[hosts]
        )
        plens = np.where(listed, self.old.live.plen[source, rows], self.own_plen[hosts])
        oids = np.where(listed, self.new.live.oid[source, rows], self.own_oid[hosts])
        return (
            self.old.add_many(p, hosts, 1.0, paths, plens),
            self.new.add_many(p, hosts, 1.0, oids),
        )

    # -- the interleaving ------------------------------------------------------

    def someone(self, p, *where):
        live = self.new.live.hosts(p)
        back = self.new.back.hosts(p)
        new = [ip for ip in range(PEERS) if ip not in live and ip not in back and ip != p]
        groups = {"live": live, "back": back, "new": new}
        return self.rnd.choice(groups.get(self.rnd.choice(where)) or range(PEERS))

    def play(self, p, kind):
        """One op on both sides → (eager result, id result)."""
        old, new, rnd = self.old, self.new, self.rnd
        m = int(new.live.len[p])
        if kind == "rebuild":
            return self.rebuild(rnd.randrange(PEERS)), None
        if kind == "refresh":
            return self.refresh(p, sorted(rnd.sample(range(m), rnd.randint(0, m)))), None
        if kind == "adopt":
            source = rnd.randrange(PEERS)
            have = int(new.live.len[source])
            rows = [rnd.randrange(have) for _ in range(rnd.randint(0, 4))] if have else []
            return self.adopt(p, source, rows, [rnd.randrange(PEERS) for _ in range(rnd.randint(0, 2))])
        if kind == "add":
            ip = self.someone(p, "new", "new", "new", "back", "live")
            oid = int(self.own_oid[ip]) if new.tracked else None
            relays = self.own_path[ip, : self.own_plen[ip]].tolist()
            return old.add(p, ip, 1.0, relays), new.add(p, ip, 1.0, oid)
        if kind == "score":
            values = [rnd.choice([0.0, 0.2, 0.7, 1.0]) for _ in range(m)]
            old.live.val[p, :m] = new.live.val[p, :m] = values
            return None, None
        if kind == "evict":
            return old.evict_below(p, THETA), new.evict_below(p, THETA)
        if kind == "park":
            hosts = new.live.hosts(p)
            gone = np.array([rnd.random() < 0.4 for _ in hosts], dtype=bool)
            # One pop and one front-insert per row: the loop park_where replaces.
            parked = sum(old.park(p, ip) for ip, away in zip(hosts, gone.tolist()) if away)
            return parked, new.park_where(p, gone)
        ip = self.someone(p, "back", "back", "back", "any")
        if kind == "restore":
            return old.restore(p, ip), new.restore(p, ip)
        assert kind == "drop"
        return old.drop_backup(p, ip), new.drop_backup(p, ip)

    # -- what must agree ---------------------------------------------------------

    def relays_of(self, oid):
        (row,) = self.table.rows([int(oid)])
        return row[1 : 1 + row[0]]

    def check(self, context):
        old, new = self.old, self.new
        for eager, region in ((old.live, new.live), (old.back, new.back)):
            assert np.array_equal(eager.len, region.len), context
            assert np.array_equal(eager.ip, region.ip), context
            for p in range(PEERS):
                m = int(region.len[p])
                assert np.array_equal(eager.val[p, :m], region.val[p, :m]), context
                assert np.array_equal(eager.upd[p, :m], region.upd[p, :m]), context
                for row in range(m if new.tracked else 0):
                    copy = eager.path[p, row, : eager.plen[p, row]].tolist()
                    assert self.relays_of(region.oid[p, row]) == copy, (context, p, row)
        for counter in ("evictions", "backups_parked", "backups_restored"):
            assert getattr(old, counter) == getattr(new, counter), (context, counter)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.sampled_from([1, 2, 4, 4, 5]),
    backup=st.sampled_from([0, 1, 2, 3, 3]),
    rnd=st.randoms(use_true_random=True),
    steps=st.integers(0, 80),
    track_at=st.one_of(st.none(), st.integers(0, 30)),
)
def test_a_rows_onion_id_names_what_the_eager_copy_held(capacity, backup, rnd, steps, track_at):
    both = Both(capacity, backup, rnd)
    # Where bootstrap leaves a deployment: lists mostly full, nothing parked.
    for p in range(PEERS):
        both.adopt(p, p, [], [ip for ip in range(PEERS) if rnd.random() < 0.8])
    both.check("bootstrap")
    for step in range(steps):
        if step == track_at:
            both.track()
            both.check((step, "track"))
        kind = rnd.choices(list(MIX), weights=MIX.values())[0]
        p = rnd.randrange(PEERS)
        eager, ids = both.play(p, kind)
        assert eager == ids and type(eager) is type(ids), (step, kind, p, eager, ids)
        both.check((step, kind, p))
    both.track()  # a no-op once tracked, the first departure otherwise
    both.check("end")
