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
``oid``    (n, rows)       id of the row's onion snapshot (lazy)
=========  ==============  ================================================

One row across a region's columns is one *record*, and a region changes
only by three order-preserving moves — :meth:`Region.pop`,
:meth:`Region.insert`, :meth:`Region.keep` — written once over "every
column this region has" (:meth:`Region.push` is ``insert`` at the front
for a block of records at once).  The list rules on top of them read like
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

The per-row onion *snapshot* column is added lazily: while every node has
been online since bootstrap, a peer's snapshot of an agent's onion provably
equals the agent's current onion (rebuilds only happen when a relay dies),
so the kernel stores nothing and resolves paths through the owner's current
onion.  The first offline transition triggers :meth:`track_snapshots`,
and from then on a record names its snapshot the way the object kernel's
entries share a reference to one immutable ``Onion``: by the id of a row
in an append-only :class:`OnionTable`.  Ids below ``n`` are the peers'
onions as they stood at that moment, so a row's first id is its agent's
host ip — exact by the same argument, and no path is copied.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.semantics import eviction_mask
from repro.errors import ConfigError

__all__ = ["OnionTable", "Region", "VectorTrustState"]


class OnionTable:
    """Append-only relay paths; a path's row number is its onion id.

    One int32 row per onion — the relay count, then the relays inner to
    outer.  A row is never rewritten, which is what lets a trust row hold
    an id where the object kernel's entry holds a reference; the price is
    that the table only grows, by ``4·(R + 1)`` bytes per rebuilt onion.
    """

    def __init__(self, plen: np.ndarray, path: np.ndarray) -> None:
        """Ids ``0 … n-1``: every peer's current onion, id = host ip."""
        self.count = n = len(plen)
        self._rows = np.empty((max(2 * n, 16), path.shape[1] + 1), dtype=np.int32)
        self._rows[:n, 0] = plen
        self._rows[:n, 1:] = path

    def append(self, relays: Sequence[int]) -> int:
        """Store one more onion; returns its id."""
        oid = self.count
        if oid == len(self._rows):
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
        self._rows[oid, 0] = len(relays)
        self._rows[oid, 1 : 1 + len(relays)] = relays
        self.count = oid + 1
        return oid

    def rows(self, oids: np.ndarray | Sequence[int]) -> list[list[int]]:
        """``[count, relay, …]`` per id, as Python ints: ``row[1 : 1 +
        row[0]]`` are the relays (the cells beyond them mean nothing)."""
        return self._rows[oids].tolist()

    def nbytes(self) -> int:
        return int(self._rows[: self.count].nbytes)


class Region:
    """One bounded, ordered run of rows per peer, as parallel columns."""

    oid: np.ndarray | None = None

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

    def track(self) -> None:
        """Add the snapshot column.  Up to now every row's snapshot is its
        agent's current onion, whose id is the agent's host ip; a region
        with no rows yet gets zeros no page of which is touched."""
        self.oid = self.ip.copy() if self.len.any() else np.zeros_like(self.ip)
        self.columns.append(self.oid)

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
        record = tuple(col[p, row] for col in self.columns)
        for col in self.columns:
            col[p, row:last] = col[p, row + 1 : last + 1]
        self.ip[p, last] = -1
        self.len[p] = last
        return record

    def insert(self, p: int, row: int, record: tuple) -> None:
        """Put ``record`` at ``row`` (the rows from there on shift right,
        keeping their order); a full region drops its last row."""
        m = min(int(self.len[p]) + 1, self.rows)
        for col, value in zip(self.columns, record, strict=True):
            col[p, row + 1 : m] = col[p, row : m - 1]
            col[p, row] = value
        self.len[p] = m

    def push(self, p: int, records: list[np.ndarray]) -> None:
        """:meth:`insert` each of ``records`` (one array per column) at row
        0, first to last: the last ends up frontmost, the rows already
        there shift right and whatever passes the end is dropped."""
        k = min(len(records[0]), self.rows)
        m = min(int(self.len[p]) + k, self.rows)
        for col, values in zip(self.columns, records, strict=True):
            col[p, k:m] = col[p, : m - k]
            col[p, :k] = values[: -k - 1 : -1]
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

    def __init__(self, n: int, capacity: int, backup_capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        if backup_capacity < 0:
            raise ConfigError(f"backup_capacity must be >= 0, got {backup_capacity}")
        self.n = n
        self.capacity = capacity
        self.backup_capacity = backup_capacity

        self.live = live = Region(n, capacity)
        self.back = back = Region(n, backup_capacity)
        # The columns by the names the kernel, the parity suite and the
        # tests read them under (the same arrays, not copies).
        self.live_ip, self.live_val, self.live_upd = live.columns
        self.live_len = live.len
        self.back_ip, self.back_val, self.back_upd = back.columns
        self.back_len = back.len
        #: Whether records carry an onion id yet (:meth:`track_snapshots`).
        self.tracked = False

        # Aggregate counters (sum over all peers; the object kernel keeps
        # them per list, experiments only ever read totals).
        self.evictions = 0
        self.backups_parked = 0
        self.backups_restored = 0

    # -- mutation ------------------------------------------------------------

    def add(self, p: int, ip: int, value: float, oid: int | None = None) -> bool:
        """Insert an agent row; False when already present or list full.

        ``oid`` names the onion snapshot carried by the adopted entry; it
        is required once snapshots are tracked and ignored before (until
        then every snapshot is the owner's current onion by construction).
        """
        record: tuple = (ip, value, 0)
        if self.tracked:
            if oid is None:
                raise ConfigError(
                    f"peer {p} adopts agent {ip} without an onion id, and "
                    "snapshots are tracked: the row could never be reached"
                )
            record += (oid,)
        m = int(self.live_len[p])
        if m >= self.capacity or self.live.find(p, ip) >= 0:
            return False
        self.live.insert(p, m, record)
        # A re-added agent must not linger in backup.
        self.drop_backup(p, ip)
        return True

    def add_many(
        self, p: int, hosts: np.ndarray, value: float, oids: np.ndarray | None = None
    ) -> int:
        """:meth:`add` each of ``hosts`` in order, as one slice write.

        Returns how many rows were inserted: hosts already listed (or
        repeated) are skipped and the list stops filling at capacity,
        exactly as the one-by-one loop would.  ``oids[i]`` names host
        ``i``'s onion snapshot, required once snapshots are tracked.
        """
        if self.tracked and oids is None:
            raise ConfigError(f"peer {p} adopts agents without onion ids")
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
        if self.tracked:
            live.oid[p, m : m + k] = oids[new]
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

    def park_where(self, p: int, gone: np.ndarray) -> int:
        """§3.4.3: peer ``p``'s live rows where ``gone`` is True (their
        agents went offline) leave the list, those with positive expertise
        for the backup cache — in row order, so the last one parked is the
        most recent.  One block move, not a pop and an insert per row.
        Returns how many were parked (the rest are removed outright)."""
        live = self.live
        worth = np.flatnonzero(gone & (live.val[p, : live.len[p]] > 0.0))
        if self.backup_capacity == 0:
            worth = worth[:0]  # nowhere to park
        self.back.push(p, [col[p, worth] for col in live.columns])
        self.backups_parked += int(worth.size)
        live.keep(p, ~gone)
        return int(worth.size)

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

    def track_snapshots(self) -> None:
        """Start carrying an onion id per record.

        Called once, immediately before the first node ever goes offline.
        Up to that point no onion has ever been rebuilt (rebuilds are
        triggered only by dead relays), so every stored snapshot equals
        the owner's *current* onion — the one the :class:`OnionTable` built
        at the same moment files under the owner's host ip.  Starting every
        row at ``oid = ip`` is exact, not an approximation.
        """
        if self.tracked:
            return
        self.live.track()
        self.back.track()
        self.tracked = True

    # -- introspection -------------------------------------------------------

    def nbytes(self) -> int:
        """Resident bytes across all state arrays (for docs/benchmarks)."""
        return self.live.nbytes() + self.back.nbytes()
