"""Property test: the array kernel's trust rows against the object kernel's list.

:class:`~repro.vector.state.VectorTrustState` states the §3.4.3 list rules
over numpy columns; :class:`~repro.core.agent_list.TrustedAgentList` states
them over a dict of row objects and is the reference.  Hypothesis picks
small ``(C, B, θ)`` (``C = 1`` and ``B = 0`` included), the initial
expertise, a script length, whether onion snapshots are never tracked,
tracked from the start or switched on by a mid-script
``track_snapshots``, and a seeded ``Random`` that interleaves add /
add_many / expertise update / θ-eviction / park / park_where / restore /
drop on one peer of a three-peer state — choosing whom each op names from the current
rows, so that most parks hit a live agent, most restores a parked one and
most adds one not yet listed (a shorter script is a prefix of the same
interleaving, which is how a failure shrinks).  After every op both sides
must agree on the return value, the live rows and the backup rows in order
— (ip, value, updates, snapshot) each, the array side's snapshot being the
:class:`~repro.vector.state.OnionTable` row its ``oid`` cell names — and
the three counters; the array
side must also keep ``-1`` beyond ``len`` and leave the two neighbouring
peers' rows alone.

Shown to fail under each of these seeded mutations of ``vector/state.py``
(``Region`` unless noted): ``insert`` that does not trim a full region
(``m = len + 1``); ``pop`` that shifts only ``ip``/``val``/``upd`` and
leaves the snapshot column behind; ``keep`` that writes the kept rows back
reversed; ``keep`` that
leaves the freed tail un-padded; ``restore`` whose failed branch re-inserts
at the row it popped instead of the end; ``park_where`` without the
positive-expertise test; ``add`` that skips the backup purge; ``track``
that starts a non-empty backup region at zeros instead of ``oid = ip``;
``push`` that leaves the block in park order (first parked frontmost);
``push`` that does not trim (``m = len + k``); ``add_many`` that writes
``oids[:k]`` instead of ``oids[new]``; ``add`` that stores ``ip`` for the
id.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent_list import TrustedAgentList
from repro.core.messages import AgentListEntry
from repro.core.semantics import ewma_update
from repro.vector.state import OnionTable, VectorTrustState

HOSTS = 9  # agent host ips 0 … 8
RELAYS = 2  # snapshot width
PEER, NEIGHBOURS = 1, (0, 2)
ALPHA = 0.3
#: How often the interleaving plays each op: enough adds to keep the list
#: near full (where bootstrap leaves it), enough parks to fill the cache.
MIX = {
    "add": 6, "add_many": 2, "update": 3, "evict": 2,
    "park": 4, "park_where": 2, "restore": 3, "drop": 1,
}


def node_id(ip):
    return bytes([ip])


class Both:
    """The same three lists twice: reference objects and array state."""

    def __init__(self, capacity, backup, theta, initial, rnd):
        self.theta, self.initial, self.rnd = theta, initial, rnd
        self.ref = [
            TrustedAgentList(capacity, ALPHA, theta, backup, initial) for _ in range(3)
        ]
        self.arr = VectorTrustState(3, capacity, backup)
        # Every host's own current onion — what a snapshot taken before the
        # first departure equals, and what the table files under id = ip.
        self.own = [self.snapshot() for _ in range(HOSTS)]
        self.table = None

    def track(self):
        """What ArrayHiRepSystem._track_snapshots does (a no-op once tracked)."""
        self.arr.track_snapshots()
        if self.table is None:
            own_path = np.full((HOSTS, RELAYS), -1, dtype=np.int32)
            for ip, relays in enumerate(self.own):
                own_path[ip, : len(relays)] = relays
            self.table = OnionTable(
                np.array([len(relays) for relays in self.own], dtype=np.int32), own_path
            )

    # -- the interleaving ------------------------------------------------------

    def snapshot(self):
        return tuple(self.rnd.randrange(HOSTS) for _ in range(self.rnd.randint(0, RELAYS)))

    def someone(self, p, *where):
        """A host from the group a random ``where`` names (anyone if empty)."""
        live = [agent.entry.agent_ip for agent in self.ref[p].agents()]
        back = [agent.entry.agent_ip for agent in self.ref[p].backup_agents()]
        new = [ip for ip in range(HOSTS) if ip not in live and ip not in back]
        groups = {"live": live, "back": back, "new": new}
        return self.rnd.choice(groups.get(self.rnd.choice(where)) or range(HOSTS))

    def adoptee(self, p):
        """(host, the snapshot its entry carries) for an add."""
        ip = self.someone(p, "new", "new", "new", "new", "back", "live", "any")
        return ip, self.snapshot() if self.arr.tracked else self.own[ip]

    def next_op(self, p):
        kind = self.rnd.choices(list(MIX), weights=MIX.values())[0]
        if kind == "add":
            return (kind, *self.adoptee(p), self.rnd.choice([None] * 6 + [0.0, 0.5]))
        if kind == "add_many":
            return kind, [self.adoptee(p) for _ in range(self.rnd.randint(0, 5))]
        if kind == "update":
            scored = {self.someone(p, "live", "live", "any") for _ in range(self.rnd.randint(0, 4))}
            return kind, {ip: self.rnd.random() < 0.5 for ip in sorted(scored)}
        if kind == "evict":
            return (kind,)
        if kind == "park":
            return kind, self.someone(p, "live", "live", "live", "any")
        if kind == "park_where":
            return kind, {self.someone(p, "live", "live", "any") for _ in range(self.rnd.randint(0, 4))}
        return kind, self.someone(p, "back", "back", "back", "any")

    # -- one op, both sides ------------------------------------------------------

    def entry(self, ip, relays):
        return AgentListEntry(1.0, node_id(ip), relays, None, ip)

    def oid(self, relays):
        """The id an adopted snapshot goes by (none before tracking)."""
        return self.table.append(relays) if self.arr.tracked else None

    def play(self, p, op):
        """Apply ``op`` to peer ``p`` on both sides → (reference, array) results."""
        ref, arr, kind = self.ref[p], self.arr, op[0]
        if kind == "add":
            _, ip, relays, value = op
            return (
                ref.add(self.entry(ip, relays), value),
                arr.add(p, ip, self.initial if value is None else value, self.oid(relays)),
            )
        if kind == "add_many":
            batch = op[1]
            oids = [self.oid(relays) for _, relays in batch]
            return (
                sum(ref.add(self.entry(ip, relays)) for ip, relays in batch),
                arr.add_many(
                    p,
                    np.array([ip for ip, _ in batch], dtype=np.int64),
                    self.initial,
                    np.array(oids, dtype=np.int32) if arr.tracked else None,
                ),
            )
        if kind == "update":  # what ArrayHiRepSystem._settle does, step 1
            scored = {ip: bit for ip, bit in op[1].items() if arr.live.find(p, ip) >= 0}
            rows = np.array([arr.live.find(p, ip) for ip in scored], dtype=np.int64)
            bits = np.array(list(scored.values()), dtype=np.float64)
            arr.live_val[p, rows] = ewma_update(ALPHA, arr.live_val[p, rows], bits)
            arr.live_upd[p, rows] += 1
            return (
                [ref.update_expertise(node_id(ip), float(bit), 1.0) for ip, bit in op[1].items()],
                [
                    float(arr.live_val[p, arr.live.find(p, ip)]) if ip in scored else None
                    for ip in op[1]
                ],
            )
        if kind == "evict":
            return len(ref.evict_below_threshold()), arr.evict_below(p, self.theta)
        if kind in ("park", "park_where"):
            # What _settle does with the rows whose agents went offline; the
            # reference parks them one by one, in row order.
            away = op[1] if kind == "park_where" else {op[1]}
            gone = [ip in away for ip in arr.live.hosts(p)]
            return (
                sum(ref.park_offline(node_id(ip)) for ip in arr.live.hosts(p) if ip in away),
                arr.park_where(p, np.array(gone, dtype=bool)),
            )
        ip = op[1]
        if kind == "restore":
            return ref.restore_from_backup(node_id(ip)), arr.restore(p, ip)
        assert kind == "drop"
        return ref.drop_backup(node_id(ip)), arr.drop_backup(p, ip)

    # -- what must agree ---------------------------------------------------------

    def reference_rows(self, p):
        return tuple(
            [
                (a.entry.agent_ip, a.expertise.value, a.expertise.updates, a.entry.agent_onion)
                for a in agents
            ]
            for agents in (self.ref[p].agents(), self.ref[p].backup_agents())
        )

    def array_rows(self, p):
        tracked = self.arr.tracked
        out = []
        for region in (self.arr.live, self.arr.back):
            m = int(region.len[p])
            assert 0 <= m <= region.rows
            assert (region.ip[p, m:] == -1).all(), "-1 padding beyond len"
            out.append(
                [
                    (
                        ip := int(region.ip[p, row]),
                        float(region.val[p, row]),
                        int(region.upd[p, row]),
                        self.relays_of(region.oid[p, row]) if tracked else self.own[ip],
                    )
                    for row in range(m)
                ]
            )
        return tuple(out)

    def relays_of(self, oid):
        (row,) = self.table.rows([int(oid)])
        return tuple(row[1 : 1 + row[0]])

    def counters(self, side):
        return (
            sum(x.evictions for x in side),
            sum(x.backups_parked for x in side),
            sum(x.backups_restored for x in side),
        )

    def check(self, p, op):
        reference, array = self.play(p, op)
        assert reference == array and type(array) is type(reference), (op, reference, array)
        assert self.array_rows(p) == self.reference_rows(p), op
        assert self.counters([self.arr]) == self.counters(self.ref), op


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.sampled_from([1, 2, 3, 3, 4, 4]),
    backup=st.sampled_from([0, 1, 2, 2, 3, 3]),
    theta=st.sampled_from([0.0, 0.4, 0.4, 0.75, 0.75]),
    initial=st.sampled_from([1.0, 1.0, 0.6]),
    rnd=st.randoms(use_true_random=True),
    steps=st.integers(0, 60),
    track_at=st.one_of(st.none(), st.integers(0, 60)),
)
def test_array_rows_follow_the_reference_list(
    capacity, backup, theta, initial, rnd, steps, track_at
):
    both = Both(capacity, backup, theta, initial, rnd)
    # Neighbouring peers hold rows of their own, one of them parked.
    for p in NEIGHBOURS:
        for ip in range(p, p + capacity + 1):
            both.check(p, ("add", ip, both.own[ip], None))
        both.check(p, ("park", p))
    neighbours = {p: both.array_rows(p) for p in NEIGHBOURS}
    # The peer under test starts where bootstrap leaves it: a full list.
    both.check(PEER, ("add_many", [(ip, both.own[ip]) for ip in range(capacity)]))

    for step in range(steps):
        if step == track_at:
            both.track()
        both.check(PEER, both.next_op(PEER))
        for p in NEIGHBOURS:
            assert both.array_rows(p) == neighbours[p] == both.reference_rows(p), (step, p)
    both.track()  # a no-op once tracked
    for p in range(3):
        assert both.array_rows(p) == both.reference_rows(p)
