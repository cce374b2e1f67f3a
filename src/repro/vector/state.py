"""Struct-of-arrays trust state: every peer's trusted-agent list in flat arrays.

The object kernel stores one :class:`~repro.core.agent_list.TrustedAgentList`
per peer — a dict of row objects.  At 100k+ peers that is hundreds of
megabytes of Python objects and pointer chasing.  This module packs the
same state into two *regions* — the live lists (``live_*``, ``C`` rows per
peer) and the backup caches (``back.*``, ``B`` rows per peer) — of dense
numpy columns indexed ``[peer, row]``:

=========  ==============  ================================================
column     shape           meaning
=========  ==============  ================================================
``ip``     (n, rows)       agent host ip per row (-1 = empty)
``val``    (n, rows)       expertise EWMA value per row
``upd``    (n, rows)       expertise update count per row
``len``    (n,)            number of rows in use
``plen``   (n, rows)       relay count of the row's onion snapshot (lazy)
``path``   (n, rows, R)    the snapshot's relays (lazy)
=========  ==============  ================================================

One row across a region's columns is one *record*, and a region changes
only by three order-preserving moves — :meth:`Region.pop`,
:meth:`Region.insert`, :meth:`Region.keep` — written once over "every
column this region has".  The list rules on top of them read like
:class:`~repro.core.agent_list.TrustedAgentList`'s, which is what makes
kernel parity possible (``tests/property/test_prop_trust_rows.py`` plays
generated op sequences on both):

* live rows keep **insertion order**; removals compact order-preservingly
  (dict deletion order semantics);
* the backup cache is **most-recently-parked first**: parking front-inserts
  and a full cache drops its last row, a failed restore (live list full)
  moves the row to the back of the cache, re-adding a live agent purges its
  backup row;
* parking keeps value and update count; restoring does not reset them.

The per-row onion *snapshot* columns are added lazily: while every node has
been online since bootstrap, a peer's snapshot of an agent's onion provably
equals the agent's current onion (rebuilds only happen when a relay dies),
so the kernel stores nothing and resolves paths through the owner's current
onion.  The first offline transition triggers :meth:`materialize_paths`,
which backfills the snapshot columns from the owners' current paths — exact
by the same argument — and from then on a record carries its snapshot like
the object kernel's entries do.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.semantics import eviction_mask
from repro.errors import ConfigError

__all__ = ["Region", "VectorTrustState"]


class Region:
    """One bounded, ordered run of rows per peer, as parallel columns."""

    plen: np.ndarray | None = None
    path: np.ndarray | None = None

    def __init__(self, n: int, rows: int) -> None:
        self.rows = rows
        # The record columns are views of one block (16 bytes a cell).  At
        # 10⁵ peers the block is large enough that malloc always maps it on
        # its own and unmaps it when the system goes; separate 24 MB columns
        # are carved from the heap once a process has freed its first
        # system, and there any small object that outlives them keeps
        # their pages (docs/scaling.md, "Peak memory over several systems").
        cells = n * rows
        block = np.zeros(2 * cells, dtype=np.float64)
        ints = block[cells:].view(np.int32)
        self.ip = ints[:cells].reshape(n, rows)
        self.ip.fill(-1)
        self.val = block[:cells].reshape(n, rows)
        self.upd = ints[cells:].reshape(n, rows)
        self.len = np.zeros(n, dtype=np.int32)
        #: What a record is made of, in record order.
        self.columns = [self.ip, self.val, self.upd]

    def track(self, own_path: np.ndarray, own_plen: np.ndarray) -> None:
        """Add the snapshot columns: every row's owner's current onion, by
        one gather.  Rows beyond ``len`` index owner 0's path harmlessly —
        they are never read before :meth:`insert` overwrites them."""
        hosts = np.clip(self.ip, 0, None)
        self.plen = own_plen[hosts].astype(np.int32, copy=False)
        self.path = own_path[hosts].astype(np.int32, copy=False)
        self.columns += [self.plen, self.path]

    def find(self, p: int, ip: int) -> int:
        """Row of agent ``ip`` among peer ``p``'s rows (-1 if absent)."""
        hits = np.flatnonzero(self.ip[p, : self.len[p]] == ip)
        return int(hits[0]) if hits.size else -1

    def hosts(self, p: int) -> list[int]:
        """Agent host ips of peer ``p``'s rows, in row order."""
        return self.ip[p, : self.len[p]].tolist()

    def pop(self, p: int, row: int) -> tuple:
        """Take row ``row`` out of peer ``p``'s rows (the rest shift left,
        keeping their order) and return its record."""
        last = int(self.len[p]) - 1
        record = []
        for col in self.columns:
            cell = col[p, row]
            # A path cell is a view of the row the shift overwrites; the
            # scalar cells are values already (copying one costs 0.5 µs).
            record.append(cell.copy() if cell.ndim else cell)
            col[p, row:last] = col[p, row + 1 : last + 1]
        self.ip[p, last] = -1
        self.len[p] = last
        return tuple(record)

    def insert(self, p: int, row: int, record: tuple) -> None:
        """Put ``record`` at ``row`` (the rows from there on shift right,
        keeping their order); a full region drops its last row."""
        m = min(int(self.len[p]) + 1, self.rows)
        for col, value in zip(self.columns, record, strict=True):
            col[p, row + 1 : m] = col[p, row : m - 1]
            col[p, row] = value
        self.len[p] = m

    def keep(self, p: int, mask: np.ndarray) -> None:
        """Drop peer ``p``'s rows where ``mask`` is False; the kept rows
        close up in order."""
        m = int(self.len[p])
        kept = int(np.count_nonzero(mask))
        for col in self.columns:
            col[p, :kept] = col[p, :m][mask]
        self.ip[p, kept:m] = -1
        self.len[p] = kept

    def nbytes(self) -> int:
        return int(self.len.nbytes + sum(col.nbytes for col in self.columns))


class VectorTrustState:
    """All peers' trusted-agent lists and backup caches, as arrays."""

    def __init__(
        self,
        n: int,
        capacity: int,
        backup_capacity: int,
        max_relays: int,
        initial_expertise: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        if backup_capacity < 0:
            raise ConfigError(f"backup_capacity must be >= 0, got {backup_capacity}")
        self.n = n
        self.capacity = capacity
        self.backup_capacity = backup_capacity
        self.max_relays = max_relays
        self.initial_expertise = initial_expertise

        self.live = live = Region(n, capacity)
        self.back = back = Region(n, backup_capacity)
        # The columns by the names the kernel, the parity suite and the
        # tests read them under (the same arrays, not copies).
        self.live_ip, self.live_val, self.live_upd = live.columns
        self.live_len = live.len
        self.back_ip, self.back_val, self.back_upd = back.columns
        self.back_len = back.len
        # Per-row onion snapshots, allocated on the first offline event.
        self.live_path: np.ndarray | None = None
        self.live_plen: np.ndarray | None = None
        self.paths_tracked = False

        # Aggregate counters (sum over all peers; the object kernel keeps
        # them per list, experiments only ever read totals).
        self.evictions = 0
        self.backups_parked = 0
        self.backups_restored = 0

    # -- queries -------------------------------------------------------------

    def row_of(self, p: int, ip: int) -> int:
        """Live row index of agent ``ip`` in peer ``p``'s list (-1 if absent)."""
        return self.live.find(p, ip)

    def live_hosts(self, p: int) -> list[int]:
        """Agent host ips of peer ``p``'s live rows, in row order."""
        return self.live.hosts(p)

    def backup_hosts(self, p: int) -> list[int]:
        """Agent host ips of peer ``p``'s backup rows, most recent first."""
        return self.back.hosts(p)

    def total_rows(self) -> int:
        """Live rows across every peer (sanity/bench metric)."""
        return int(self.live_len.sum())

    # -- mutation ------------------------------------------------------------

    def add(
        self,
        p: int,
        ip: int,
        value: float,
        relays: Sequence[int] | None = None,
    ) -> bool:
        """Insert an agent row; False when already present or list full.

        ``relays`` is the onion snapshot carried by the adopted entry; it
        is only stored once snapshots are tracked (before that, every
        snapshot equals the owner's current onion by construction).
        """
        m = int(self.live_len[p])
        if m >= self.capacity or self.live.find(p, ip) >= 0:
            return False
        record: tuple = (ip, value, 0)
        if self.paths_tracked:
            relays = () if relays is None else relays
            path = np.full(self.max_relays, -1, dtype=np.int32)
            path[: len(relays)] = relays
            record += (len(relays), path)
        self.live.insert(p, m, record)
        # A re-added agent must not linger in backup.
        self.drop_backup(p, ip)
        return True

    def add_many(
        self,
        p: int,
        hosts: np.ndarray,
        value: float,
        paths: np.ndarray | None = None,
        plens: np.ndarray | None = None,
    ) -> int:
        """:meth:`add` each of ``hosts`` in order, as one slice write.

        Returns how many rows were inserted: hosts already listed (or
        repeated) are skipped and the list stops filling at capacity,
        exactly as the one-by-one loop would.  ``paths[i, :plens[i]]`` is
        host ``i``'s onion snapshot, stored only once snapshots are tracked.
        """
        live = self.live
        m = int(live.len[p])
        new = np.flatnonzero(~(hosts[:, None] == live.ip[p, :m]).any(axis=1))
        # First occurrence of each host, in order, up to the free rows.
        new = new[np.sort(np.unique(hosts[new], return_index=True)[1])]
        new = new[: self.capacity - m]
        k = int(new.size)
        if k == 0:
            return 0
        live.ip[p, m : m + k] = hosts[new]
        live.val[p, m : m + k] = value
        live.upd[p, m : m + k] = 0
        if self.paths_tracked:
            live.plen[p, m : m + k] = plens[new]
            live.path[p, m : m + k] = np.where(
                np.arange(self.max_relays) < plens[new, None], paths[new], -1
            )
        live.len[p] = m + k
        # A re-added agent must not linger in backup.
        if self.back_len[p]:
            for ip in hosts[new].tolist():
                self.drop_backup(p, ip)
        return k

    def evict_below(self, p: int, threshold: float) -> int:
        """Apply the hirep-θ rule to peer ``p``; returns the eviction count."""
        mask = eviction_mask(self.live_val[p, : self.live_len[p]], threshold)
        count = int(np.count_nonzero(mask))
        if count:
            self.live.keep(p, ~mask)
            self.evictions += count
        return count

    def park(self, p: int, ip: int) -> bool:
        """§3.4.3: offline agent with positive expertise → backup cache.

        True when parked; False when removed outright (non-positive
        expertise or no backup cache) or not present.
        """
        row = self.live.find(p, ip)
        if row < 0:
            return False
        record = self.live.pop(p, row)
        if record[1] <= 0.0 or self.backup_capacity == 0:
            return False
        # Most-recently-first: new arrivals go to the front.
        self.back.insert(p, 0, record)
        self.backups_parked += 1
        return True

    def restore(self, p: int, ip: int) -> bool:
        """Probe succeeded: move a backup row back to the live list.

        When the live list is full the row stays in backup but moves to
        the *end* of the cache (mirroring the object kernel's re-insert).
        """
        row = self.back.find(p, ip)
        if row < 0:
            return False
        record = self.back.pop(p, row)
        m = int(self.live_len[p])
        if m >= self.capacity:
            self.back.insert(p, int(self.back_len[p]), record)
            return False
        self.live.insert(p, m, record)
        self.backups_restored += 1
        return True

    def drop_backup(self, p: int, ip: int) -> None:
        row = self.back.find(p, ip)
        if row >= 0:
            self.back.pop(p, row)

    # -- lazy onion snapshots ------------------------------------------------

    def materialize_paths(self, own_path: np.ndarray, own_plen: np.ndarray) -> None:
        """Start tracking per-row onion snapshots.

        Called once, immediately before the first node ever goes offline.
        Up to that point no onion has ever been rebuilt (rebuilds are
        triggered only by dead relays), so every stored snapshot equals
        the owner's *current* onion — backfilling from ``own_path`` /
        ``own_plen`` is exact, not an approximation.
        """
        if self.paths_tracked:
            return
        self.live.track(own_path, own_plen)
        self.back.track(own_path, own_plen)
        self.live_path, self.live_plen = self.live.path, self.live.plen
        self.paths_tracked = True

    # -- introspection -------------------------------------------------------

    def nbytes(self) -> int:
        """Resident bytes across all state arrays (for docs/benchmarks)."""
        return self.live.nbytes() + self.back.nbytes()
