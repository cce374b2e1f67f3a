"""Struct-of-arrays trust state: every peer's trusted-agent list in flat arrays.

The object kernel stores one :class:`~repro.core.agent_list.TrustedAgentList`
per peer — a dict of row objects.  At 100k+ peers that is hundreds of
megabytes of Python objects and pointer chasing.  This module packs the
same state into a handful of dense numpy arrays indexed ``[peer, row]``:

=================  =========  =====================================================
array              shape      meaning
=================  =========  =====================================================
``live_ip``        (n, C)     agent host ip per live row (-1 = empty)
``live_val``       (n, C)     expertise EWMA value per live row
``live_upd``       (n, C)     expertise update count per live row
``live_len``       (n,)       number of live rows
``back_ip/...``    (n, B)     same triple for the backup cache
``back_len``       (n,)       number of backup rows
``live_path``      (n, C, R)  onion relay snapshot per live row (lazy)
``live_plen``      (n, C)     relay count per live row (lazy)
=================  =========  =====================================================

Row discipline mirrors :class:`~repro.core.agent_list.TrustedAgentList`
*exactly* — this is what makes kernel parity possible:

* live rows keep **insertion order**; removals compact order-preservingly
  (dict deletion order semantics);
* the backup cache is **most-recently-parked first**: parking front-inserts
  and trims the tail, a failed restore (live list full) moves the row to
  the back of the cache, re-adding a live agent purges its backup row;
* parking keeps value and update count; restoring does not reset them.

The per-row onion *snapshot* arrays are materialized lazily: while every
node has been online since bootstrap, a peer's snapshot of an agent's
onion provably equals the agent's current onion (rebuilds only happen when
a relay dies), so the kernel stores nothing and resolves paths through the
owner's current onion.  The first offline transition triggers
:meth:`materialize_paths`, which backfills the snapshot arrays from the
owners' current paths — exact by the same argument — and from then on
snapshots are tracked per row like the object kernel's entries.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.semantics import eviction_mask
from repro.errors import ConfigError

__all__ = ["VectorTrustState"]


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

        self.live_ip = np.full((n, capacity), -1, dtype=np.int32)
        self.live_val = np.zeros((n, capacity), dtype=np.float64)
        self.live_upd = np.zeros((n, capacity), dtype=np.int32)
        self.live_len = np.zeros(n, dtype=np.int32)

        self.back_ip = np.full((n, backup_capacity), -1, dtype=np.int32)
        self.back_val = np.zeros((n, backup_capacity), dtype=np.float64)
        self.back_upd = np.zeros((n, backup_capacity), dtype=np.int32)
        self.back_len = np.zeros(n, dtype=np.int32)

        # Per-row onion snapshots, allocated on the first offline event.
        self.live_path: np.ndarray | None = None
        self.live_plen: np.ndarray | None = None
        self.back_path: np.ndarray | None = None
        self.back_plen: np.ndarray | None = None
        self.paths_tracked = False

        # Aggregate counters (sum over all peers; the object kernel keeps
        # them per list, experiments only ever read totals).
        self.evictions = 0
        self.backups_parked = 0
        self.backups_restored = 0

    # -- queries -------------------------------------------------------------

    def row_of(self, p: int, ip: int) -> int:
        """Live row index of agent ``ip`` in peer ``p``'s list (-1 if absent)."""
        m = int(self.live_len[p])
        if m == 0:
            return -1
        hits = np.flatnonzero(self.live_ip[p, :m] == ip)
        return int(hits[0]) if hits.size else -1

    def back_row_of(self, p: int, ip: int) -> int:
        """Backup row index of agent ``ip`` for peer ``p`` (-1 if absent)."""
        b = int(self.back_len[p])
        if b == 0:
            return -1
        hits = np.flatnonzero(self.back_ip[p, :b] == ip)
        return int(hits[0]) if hits.size else -1

    def live_hosts(self, p: int) -> list[int]:
        """Agent host ips of peer ``p``'s live rows, in row order."""
        return [int(ip) for ip in self.live_ip[p, : int(self.live_len[p])]]

    def backup_hosts(self, p: int) -> list[int]:
        """Agent host ips of peer ``p``'s backup rows, most recent first."""
        return [int(ip) for ip in self.back_ip[p, : int(self.back_len[p])]]

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
        if self.row_of(p, ip) >= 0:
            return False
        m = int(self.live_len[p])
        if m >= self.capacity:
            return False
        self.live_ip[p, m] = ip
        self.live_val[p, m] = value
        self.live_upd[p, m] = 0
        if self.paths_tracked:
            assert self.live_path is not None and self.live_plen is not None
            k = 0 if relays is None else len(relays)
            self.live_plen[p, m] = k
            self.live_path[p, m, :] = -1
            if k:
                self.live_path[p, m, :k] = np.asarray(relays, dtype=np.int32)
        self.live_len[p] = m + 1
        # A re-added agent must not linger in backup.
        brow = self.back_row_of(p, ip)
        if brow >= 0:
            self._remove_backup_row(p, brow)
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
        m = int(self.live_len[p])
        new = np.flatnonzero(~(hosts[:, None] == self.live_ip[p, :m]).any(axis=1))
        # First occurrence of each host, in order, up to the free rows.
        new = new[np.sort(np.unique(hosts[new], return_index=True)[1])]
        new = new[: self.capacity - m]
        k = int(new.size)
        if k == 0:
            return 0
        self.live_ip[p, m : m + k] = hosts[new]
        self.live_val[p, m : m + k] = value
        self.live_upd[p, m : m + k] = 0
        if self.paths_tracked:
            assert self.live_path is not None and self.live_plen is not None
            assert paths is not None and plens is not None
            self.live_plen[p, m : m + k] = plens[new]
            self.live_path[p, m : m + k] = np.where(
                np.arange(self.max_relays) < plens[new, None], paths[new], -1
            )
        self.live_len[p] = m + k
        # A re-added agent must not linger in backup.
        b = int(self.back_len[p])
        if b:
            for ip in hosts[new]:
                self.drop_backup(p, int(ip))
        return k

    def _remove_live_row(self, p: int, row: int) -> None:
        """Order-preserving removal (shift-left compaction)."""
        m = int(self.live_len[p])
        if not 0 <= row < m:
            return
        # Shift-left copies read ahead of writes, so in-place is safe.
        self.live_ip[p, row : m - 1] = self.live_ip[p, row + 1 : m]
        self.live_val[p, row : m - 1] = self.live_val[p, row + 1 : m]
        self.live_upd[p, row : m - 1] = self.live_upd[p, row + 1 : m]
        if self.paths_tracked:
            assert self.live_path is not None and self.live_plen is not None
            self.live_plen[p, row : m - 1] = self.live_plen[p, row + 1 : m]
            self.live_path[p, row : m - 1] = self.live_path[p, row + 1 : m]
        self.live_ip[p, m - 1] = -1
        self.live_len[p] = m - 1

    def _remove_backup_row(self, p: int, row: int) -> None:
        b = int(self.back_len[p])
        if not 0 <= row < b:
            return
        self.back_ip[p, row : b - 1] = self.back_ip[p, row + 1 : b]
        self.back_val[p, row : b - 1] = self.back_val[p, row + 1 : b]
        self.back_upd[p, row : b - 1] = self.back_upd[p, row + 1 : b]
        if self.paths_tracked:
            assert self.back_path is not None and self.back_plen is not None
            self.back_plen[p, row : b - 1] = self.back_plen[p, row + 1 : b]
            self.back_path[p, row : b - 1] = self.back_path[p, row + 1 : b]
        self.back_ip[p, b - 1] = -1
        self.back_len[p] = b - 1

    def evict_below(self, p: int, threshold: float) -> int:
        """Apply the hirep-θ rule to peer ``p``; returns the eviction count."""
        m = int(self.live_len[p])
        if m == 0:
            return 0
        mask = eviction_mask(self.live_val[p, :m], threshold)
        count = int(mask.sum())
        if count == 0:
            return 0
        keep = ~mask
        kept = m - count
        self.live_ip[p, :kept] = self.live_ip[p, :m][keep]
        self.live_val[p, :kept] = self.live_val[p, :m][keep]
        self.live_upd[p, :kept] = self.live_upd[p, :m][keep]
        if self.paths_tracked:
            assert self.live_path is not None and self.live_plen is not None
            self.live_plen[p, :kept] = self.live_plen[p, :m][keep]
            self.live_path[p, :kept] = self.live_path[p, :m][keep]
        self.live_ip[p, kept:m] = -1
        self.live_len[p] = kept
        self.evictions += count
        return count

    def park(self, p: int, ip: int) -> bool:
        """§3.4.3: offline agent with positive expertise → backup cache.

        True when parked; False when removed outright (non-positive
        expertise or no backup cache) or not present.
        """
        row = self.row_of(p, ip)
        if row < 0:
            return False
        value = float(self.live_val[p, row])
        upd = int(self.live_upd[p, row])
        k = 0
        path: np.ndarray | None = None
        if self.paths_tracked:
            assert self.live_path is not None and self.live_plen is not None
            k = int(self.live_plen[p, row])
            path = self.live_path[p, row, :k].copy()
        self._remove_live_row(p, row)
        if value <= 0.0 or self.backup_capacity == 0:
            return False
        b = int(self.back_len[p])
        # Most-recently-first: shift right and front-insert; a full cache
        # drops its oldest (last) row.  .copy() — shift-right overlaps.
        shift = min(b, self.backup_capacity - 1)
        if shift:
            self.back_ip[p, 1 : shift + 1] = self.back_ip[p, :shift].copy()
            self.back_val[p, 1 : shift + 1] = self.back_val[p, :shift].copy()
            self.back_upd[p, 1 : shift + 1] = self.back_upd[p, :shift].copy()
            if self.paths_tracked:
                assert self.back_path is not None and self.back_plen is not None
                self.back_plen[p, 1 : shift + 1] = self.back_plen[p, :shift].copy()
                self.back_path[p, 1 : shift + 1] = self.back_path[p, :shift].copy()
        self.back_ip[p, 0] = ip
        self.back_val[p, 0] = value
        self.back_upd[p, 0] = upd
        if self.paths_tracked:
            assert self.back_path is not None and self.back_plen is not None
            self.back_plen[p, 0] = k
            self.back_path[p, 0, :] = -1
            if k:
                assert path is not None
                self.back_path[p, 0, :k] = path
        self.back_len[p] = min(b + 1, self.backup_capacity)
        self.backups_parked += 1
        return True

    def restore(self, p: int, ip: int) -> bool:
        """Probe succeeded: move a backup row back to the live list.

        When the live list is full the row stays in backup but moves to
        the *end* of the cache (mirroring the object kernel's re-insert).
        """
        brow = self.back_row_of(p, ip)
        if brow < 0:
            return False
        m = int(self.live_len[p])
        if m >= self.capacity:
            self._move_backup_to_end(p, brow)
            return False
        value = float(self.back_val[p, brow])
        upd = int(self.back_upd[p, brow])
        k = 0
        path: np.ndarray | None = None
        if self.paths_tracked:
            assert self.back_path is not None and self.back_plen is not None
            k = int(self.back_plen[p, brow])
            path = self.back_path[p, brow, :k].copy()
        self._remove_backup_row(p, brow)
        self.live_ip[p, m] = ip
        self.live_val[p, m] = value
        self.live_upd[p, m] = upd
        if self.paths_tracked:
            assert self.live_path is not None and self.live_plen is not None
            self.live_plen[p, m] = k
            self.live_path[p, m, :] = -1
            if k:
                assert path is not None
                self.live_path[p, m, :k] = path
        self.live_len[p] = m + 1
        self.backups_restored += 1
        return True

    def _move_backup_to_end(self, p: int, row: int) -> None:
        ip = int(self.back_ip[p, row])
        value = float(self.back_val[p, row])
        upd = int(self.back_upd[p, row])
        k = 0
        path: np.ndarray | None = None
        if self.paths_tracked:
            assert self.back_path is not None and self.back_plen is not None
            k = int(self.back_plen[p, row])
            path = self.back_path[p, row, :k].copy()
        self._remove_backup_row(p, row)
        b = int(self.back_len[p])
        self.back_ip[p, b] = ip
        self.back_val[p, b] = value
        self.back_upd[p, b] = upd
        if self.paths_tracked:
            assert self.back_path is not None and self.back_plen is not None
            self.back_plen[p, b] = k
            self.back_path[p, b, :] = -1
            if k:
                assert path is not None
                self.back_path[p, b, :k] = path
        self.back_len[p] = b + 1

    def drop_backup(self, p: int, ip: int) -> None:
        brow = self.back_row_of(p, ip)
        if brow >= 0:
            self._remove_backup_row(p, brow)

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
        n, cap = self.live_ip.shape
        rel = self.max_relays
        self.live_path = np.full((n, cap, rel), -1, dtype=np.int32)
        self.live_plen = np.zeros((n, cap), dtype=np.int32)
        self.back_path = np.full((n, self.backup_capacity, rel), -1, dtype=np.int32)
        self.back_plen = np.zeros((n, self.backup_capacity), dtype=np.int32)
        # Rows beyond live_len/back_len index owner 0's path harmlessly —
        # they are never read before being overwritten by add/park.
        hosts = np.clip(self.live_ip, 0, None)
        self.live_path[:] = own_path[hosts]
        self.live_plen[:] = own_plen[hosts]
        if self.backup_capacity:
            bhosts = np.clip(self.back_ip, 0, None)
            self.back_path[:] = own_path[bhosts]
            self.back_plen[:] = own_plen[bhosts]
        self.paths_tracked = True

    # -- introspection -------------------------------------------------------

    def nbytes(self) -> int:
        """Resident bytes across all state arrays (for docs/benchmarks)."""
        arrays = [
            self.live_ip, self.live_val, self.live_upd, self.live_len,
            self.back_ip, self.back_val, self.back_upd, self.back_len,
        ]
        if self.paths_tracked:
            assert self.live_path is not None and self.live_plen is not None
            assert self.back_path is not None and self.back_plen is not None
            arrays += [self.live_path, self.live_plen, self.back_path, self.back_plen]
        return int(sum(a.nbytes for a in arrays))
