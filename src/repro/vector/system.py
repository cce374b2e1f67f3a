"""The array kernel's system façade: hiREP over struct-of-arrays state.

:class:`ArrayHiRepSystem` implements the same
:class:`~repro.core.interface.ReputationSystem` surface as
:class:`~repro.core.system.HiRepSystem`, but executes the protocol over
:class:`~repro.vector.state.VectorTrustState` and
:class:`~repro.vector.network.ArrayNetwork` instead of per-object peers
and a discrete-event network.  It is registered as ``hirep-array``.

Parity discipline — the whole design revolves around mirroring the object
kernel's RNG stream usage **draw for draw**:

* :class:`~repro.core.world.World` construction is shared, so topology,
  bandwidths, truth and maliciousness are bit-identical.
* The transaction cycle itself (bootstrap guard, churn step, pair draw,
  provider validation, maintenance, outcome record) is
  :class:`~repro.core.runtime.TransactionRuntime`'s — the same code the
  object kernel runs; this module only supplies the closed-form operator.
* The agent population is :meth:`World.draw_agents
  <repro.core.world.World.draw_agents>`, the same draw ``build_wiring``
  makes.  The object kernel's key-generation draws live on the isolated
  ``rng_keys`` stream, so skipping key material entirely (this kernel
  signs nothing) perturbs no other stream.
* Bootstrap/maintenance are the shared
  :func:`~repro.core.discovery.bootstrap_lists` /
  :func:`~repro.core.discovery.maintain_list` /
  :func:`~repro.core.discovery.probe_backups` rules, and circuit upkeep
  the shared :func:`~repro.onion.onion.draw_relays` /
  :func:`~repro.onion.onion.circuit_usable`.  Discovery runs the
  shared flood (:func:`~repro.core.discovery.discover_agent_lists`, which
  only reports *who* replied) on the same per-peer generators, gathers
  the responders' list rows as one ``(ids, weights, lens)`` block by
  fancy-indexing the state arrays, and ranks it with the shared columnar
  :func:`~repro.core.ranking.rank_within_list` /
  :func:`~repro.core.ranking.select_agents` — no per-entry objects; onion
  snapshots are read for the winners only.
* Queries draw the same selection shuffle, per-request nonces, handshake
  nonces and trust-model evaluations in the same stream order.

Message exchange is replaced with closed-form hop accounting: within one
transaction liveness is static in both kernels, so "how many hops did an
onion send cost and did it arrive" is pure arithmetic over the liveness
mask (see ``_send_leg``).  Response *times* are the one metric
the array kernel only approximates (there is no event engine); they are
excluded from parity and documented in ``docs/scaling.md``.

Fault planes and the query-timeout/retry plane both need the object
kernel's event engine.  ``hirep-array``'s row of
:data:`~repro.core.registry.CAPABILITIES` refuses them:
:func:`~repro.core.registry.build_system` (or the constructor, called
directly) raises :class:`~repro.errors.ConfigError` for a set
``query_timeout_ms``, and ``FaultPlane.install`` for a plane.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import HiRepConfig
from repro.core.discovery import (
    bootstrap_lists,
    discover_agent_lists,
    maintain_list,
    probe_backups,
)
from repro.core.ranking import rank_within_list, select_agents
from repro.core.runtime import Estimate, HiRepRuntime
from repro.core.semantics import (
    aggregate_estimate,
    confidence,
    consistency_bit,
    ewma_update,
    selection_order,
)
from repro.core.trust_models import TrustModel
from repro.core.world import ModelFactory, World
from repro.crypto.hashing import NodeID
from repro.crypto.nonce import NonceRegistry
from repro.errors import ConfigError
from repro.net.messages import Category, DEFAULT_MESSAGE_BYTES
from repro.onion.handshake import HANDSHAKE_MESSAGES
from repro.onion.onion import circuit_usable, draw_relays
from repro.sim.rng import spawn
from repro.vector.network import ArrayNetwork
from repro.vector.state import OnionTable, VectorTrustState

__all__ = ["ArrayHiRepSystem"]


def _nid(ip: int) -> NodeID:
    """Synthetic nodeID for peer ``ip`` (bijective; no key material here)."""
    return int(ip).to_bytes(20, "big")


class ArrayHiRepSystem(HiRepRuntime):
    """hiREP on the array kernel: one deployment, state as numpy arrays."""

    executor = "hirep-array"

    def __init__(
        self,
        config: HiRepConfig | None = None,
        *,
        churn=None,
        model_factory: ModelFactory | None = None,
        topology=None,
        bootstrap_mode: str = "protocol",
    ) -> None:
        """Build the substrate and per-agent models; no per-peer objects.

        ``bootstrap_mode="protocol"`` runs the paper's token-based
        discovery (parity with the object kernel); ``"seeded"`` fills
        every list directly in O(n·C) vectorized work — for 100k+ sweeps
        where protocol bootstrap, not steady state, would dominate.
        """
        config = config or HiRepConfig()
        if bootstrap_mode not in ("protocol", "seeded"):
            raise ConfigError(f"unknown bootstrap_mode {bootstrap_mode!r}")
        world = World.from_config(
            config, topology=topology, network_factory=ArrayNetwork
        )
        super().__init__(config, world)
        self.churn = churn
        self.bootstrap_mode = bootstrap_mode

        n = config.network_size
        net: ArrayNetwork = self.network
        # Per-peer streams, exactly as build_wiring spawns them.  Each is
        # built when a peer first draws from it (`repro.sim.rng.Streams`):
        # after a seeded 10⁵ set-up a run reads 996 of 100 000 by 1 000
        # transactions.  The object kernel then generates per-peer keys from
        # rng_keys — an isolated stream this kernel simply never touches.
        self._peer_rngs = spawn(world.rng_peers, n)
        self._models: dict[int, TrustModel] = {}
        self._agent_rng: dict[int, np.random.Generator] = {}
        self.agent_quality: dict[int, bool] = {}
        for ip, good, agent_rng, model in world.draw_agents(model_factory):
            self._models[ip] = model
            self._agent_rng[ip] = agent_rng
            self.agent_quality[ip] = good

        max_relays = max(config.onion_relays, 0)
        self.state = VectorTrustState(
            n, config.trusted_agents, config.backup_cache_size
        )
        # Every peer's *own* onion (the one agents answer through).
        self._own_path = np.full((n, max_relays), -1, dtype=np.int32)
        self._own_plen = np.zeros(n, dtype=np.int32)
        self._own_built = np.zeros(n, dtype=bool)
        # Once a node has departed: every onion a trust row may still name
        # (append-only), and which of them is each peer's current one.
        self._onions: OnionTable | None = None
        self._own_oid: np.ndarray | None = None  # int32, once tracked
        # Lazy per-host registries/caches (populated on first use so a
        # 100k-node build does not allocate 100k empty objects up front).
        self._nonce_reg: dict[int, NonceRegistry] = {}
        self._responder_reg: dict[int, NonceRegistry] = {}
        self._relay_keys: dict[int, set[int]] = {}
        self._known: dict[int, set[int]] = {}

        self._latency_mean = net.latency_model.mean_ms()
        net.on_first_offline = self._track_snapshots

        # Aggregate protocol stats (the object kernel keeps these per peer).
        self.handshakes_performed = 0
        self.keys_learned = 0
        self.reports_accepted = 0
        self.reports_rejected = 0
        self.probe_messages = 0
        self.queries_completed = 0

    # ------------------------------------------------------------------
    # Registries and onions
    # ------------------------------------------------------------------

    def _nonces(self, ip: int) -> NonceRegistry:
        """Peer ``ip``'s own nonce registry (query + report nonces)."""
        reg = self._nonce_reg.get(ip)
        if reg is None:
            reg = self._nonce_reg[ip] = NonceRegistry(self._peer_rngs[ip])
        return reg

    def _responder_nonces(self, ip: int) -> NonceRegistry:
        """Relay ``ip``'s handshake-responder registry.

        A separate registry that *shares* node ``ip``'s generator, exactly
        like ``build_wiring`` hands the handshake responder
        ``NonceRegistry(peer_rngs[ip])`` next to the peer's own registry.
        """
        reg = self._responder_reg.get(ip)
        if reg is None:
            reg = self._responder_reg[ip] = NonceRegistry(self._peer_rngs[ip])
        return reg

    def _track_snapshots(self) -> None:
        """The first departure is next: from here on a trust row names the
        onion it holds (until now it could only be the owner's current one)."""
        self.state.track_snapshots()
        self._onions = OnionTable(self._own_plen, self._own_path)
        self._own_oid = np.arange(self.config.network_size, dtype=np.int32)

    def _learn_relay_key(self, host: int, relay: int) -> None:
        """Anonymity-key handshake with ``relay`` unless already cached."""
        cache = self._relay_keys.setdefault(host, set())
        if relay in cache:
            return
        # The responder issues exactly one nonce from the relay's stream
        # (mirrors onion.handshake.perform_handshake).
        self._responder_nonces(relay).issue()
        self.counter.count(Category.KEY_EXCHANGE, HANDSHAKE_MESSAGES)
        cache.add(relay)
        self.handshakes_performed += 1

    def _rebuild_onion(self, host: int) -> None:
        relays = draw_relays(
            self.network, host, self.config.onion_relays, self._peer_rngs[host]
        )
        for relay in relays:
            self._learn_relay_key(host, relay)
        self._own_plen[host] = len(relays)
        self._own_path[host, : len(relays)] = relays
        self._own_built[host] = True
        if self._onions is not None:
            # Rows that hold the old onion keep naming it.
            self._own_oid[host] = self._onions.append(relays)

    def _ensure_onion(self, host: int) -> None:
        """Build or reuse ``host``'s own onion (HiRepPeer.ensure_onion);
        one never built has no relays, which is not a usable circuit."""
        relays = self._own_path[host, : self._own_plen[host]].tolist()
        if not circuit_usable(self.network, relays):
            self._rebuild_onion(host)

    def _ensure_onions(self, hosts: list[int]) -> None:
        """:meth:`_ensure_onion` for each of ``hosts`` in order, from one
        read of their circuits: liveness is static within a transaction
        and a rebuild touches nobody else's circuit."""
        plens = self._own_plen[hosts].tolist()
        for host, k, path in zip(hosts, plens, self._own_path[hosts].tolist()):
            if not circuit_usable(self.network, path[:k]):
                self._rebuild_onion(host)

    def _send_leg(
        self, p: int, rows: list[int], hosts: list[int]
    ) -> tuple[int, list[int]]:
        """Hop accounting for one onion send through each of peer ``p``'s
        ``rows`` (agents ``hosts``), from one read of their snapshots:
        (messages, hops the send took per row — 0 where it was lost).

        The wire walks the path entry-first (= reversed storage order);
        each hop to an online node costs one message, the first offline
        relay swallows the message, and delivery additionally requires the
        owner to be online.  Liveness is static within a transaction, so
        this matches the DES hop-by-hop bill exactly.
        """
        alive = self.network.alive
        messages = 0
        hops = []
        for host, onion in zip(hosts, self._onions.rows(self.state.live.oid[p, rows])):
            sent = 1
            arrived = alive[host]
            for i in range(onion[0], 0, -1):
                if not alive[onion[i]]:
                    arrived = False
                    break
                sent += 1
            messages += sent
            hops.append(onion[0] + 1 if arrived else 0)
        return messages, hops

    # ------------------------------------------------------------------
    # Discovery, bootstrap (§3.4.1) and maintenance (§3.4.3)
    # ------------------------------------------------------------------

    def _self_offer(self, node: int) -> bool:
        """A listless agent answers discovery with itself, freshening its
        onion on the spot (MaintenanceService.self_entry_for)."""
        if node not in self._models:
            return False
        self._ensure_onion(node)
        return True

    def _discover_for(self, p: int, wanted: int) -> int:
        """One discovery round for peer ``p`` (MaintenanceService.discover_for)."""
        cfg = self.config
        st = self.state
        outcome = discover_agent_lists(
            self.topology,
            p,
            cfg.tokens,
            cfg.ttl,
            rng=self._peer_rngs[p],
            has_list=memoryview(st.live_len).__getitem__,  # a length, as an int
            self_offer=self._self_offer,
            online=self.network.alive.__getitem__,
        )
        self.counter.count(Category.AGENT_DISCOVERY, outcome.request_messages)
        self.counter.count(Category.AGENT_DISCOVERY_REPLY, outcome.reply_messages)
        if not outcome.responders:
            return 0
        # The replies as columns: the responders' list rows, gathered whole;
        # a self-offer is a one-cell row (host ips are the agent ids).
        nodes = np.asarray(outcome.responders, dtype=np.int64)
        offered = ~np.asarray(outcome.shared_list, dtype=bool)
        ids = st.live_ip[nodes]
        weights = st.live_val[nodes]
        lens = st.live_len[nodes]
        ids[offered, 0] = nodes[offered]
        weights[offered, 0] = cfg.initial_expertise
        lens[offered] = 1
        ranks = rank_within_list(weights, lens, wanted)
        replies, rows = select_agents(ids, ranks, wanted, self._peer_rngs[p])
        # Adopt the winners, minus the requestor itself.  Nothing mutates
        # list state between flood and adopt, so each winner's onion
        # snapshot is read now from its (responder, row) cell — or is the
        # offering agent's current onion.
        hosts = ids[replies, rows]
        keep = hosts != p
        replies, rows, hosts = replies[keep], rows[keep], hosts[keep]
        if not st.tracked:
            return st.add_many(p, hosts, cfg.initial_expertise)
        oids = np.where(
            offered[replies], self._own_oid[hosts], st.live.oid[nodes[replies], rows]
        )
        return st.add_many(p, hosts, cfg.initial_expertise, oids)

    def _bootstrap(self, rounds: int) -> None:
        if self.bootstrap_mode == "seeded":
            self._bootstrap_seeded()
            return
        st = self.state
        bootstrap_lists(
            rounds,
            self.config.network_size,
            self.world.rng_workload,
            online=self.network.is_online,
            shortfall=lambda p: st.capacity - int(st.live_len[p]),
            discover=self._discover_for,
        )

    def _bootstrap_seeded(self) -> None:
        """O(n·C) direct seeding for 100k+ sweeps (documented non-parity).

        Every peer adopts a contiguous window of the agent-capable
        population starting at a random offset, and every peer gets a
        relay path of distinct non-self nodes from a random stride — the
        same *shape* of state protocol bootstrap produces, with no
        discovery traffic and no per-token Python loop.  Draws come from
        the workload stream; message counters stay untouched (experiments
        reset counters after bootstrap anyway, §4.1).
        """
        cfg = self.config
        n = cfg.network_size
        st = self.state
        rng = self.world.rng_workload
        relays_wanted = min(cfg.onion_relays, max(n - 1, 0))
        if relays_wanted > 0:
            # offsets[j] distinct within a row and never ≡ 0 (mod n) → a
            # path of distinct relays that never includes the host.
            shifts = rng.integers(0, n - 1, size=n)
            offsets = (shifts[:, None] + np.arange(relays_wanted)[None, :]) % (n - 1)
            self._own_path[:, :relays_wanted] = (
                np.arange(n)[:, None] + 1 + offsets
            ) % n
            self._own_plen[:] = relays_wanted
        self._own_built[:] = True

        capable = np.asarray(self.network.agent_capable_nodes(), dtype=np.int32)
        count = int(capable.size)
        if count == 0:
            return
        fill = min(st.capacity, count)
        start = rng.integers(0, count, size=n)
        # start < count and fill <= count: one conditional subtraction wraps,
        # and int32 (the width of live_ip) halves the (n, fill) temporaries.
        window = start.astype(np.int32)[:, None] + np.arange(fill, dtype=np.int32)
        np.subtract(window, count, out=window, where=window >= count)
        agents_mat = capable[window]  # (n, fill)
        # A window holds distinct nodes, so a peer lands on itself at most once.
        hit_peers, hit_cols = np.nonzero(
            agents_mat == np.arange(n, dtype=np.int32)[:, None]
        )
        if count > fill:
            # Substitute the next capable node beyond the window.
            agents_mat[hit_peers, hit_cols] = capable[(start[hit_peers] + fill) % count]
        st.live_ip[:, :fill] = agents_mat
        st.live_val[:, :fill] = cfg.initial_expertise
        st.live_upd[:, :fill] = 0
        st.live_len[:] = fill
        if count <= fill:
            # The window is the whole capable set: peers that appear in
            # their own window just drop that one row (tiny populations).
            for p in hit_peers:
                st.live.pop(int(p), st.live.find(int(p), int(p)))

    def _maintain(self, p: int) -> None:
        """§3.4.3 list maintenance: probe backups, rediscover if short."""
        st = self.state
        maintain_list(
            lambda: int(st.live_len[p]),
            st.capacity,
            self.config.refill_threshold,
            probe=lambda: self._probe_backups(p),
            discover=lambda wanted: self._discover_for(p, wanted),
        )

    def _probe_backups(self, p: int) -> int:
        """Probe parked agents; restore the ones that answered."""
        st = self.state
        restored, messages = probe_backups(
            st.back.hosts(p),
            online=self.network.is_online,
            restore=lambda ip: st.restore(p, ip),
            drop=lambda ip: st.drop_backup(p, ip),
        )
        if messages:
            self.counter.count(Category.CONTROL, messages)
        self.probe_messages += messages
        return restored

    # ------------------------------------------------------------------
    # Transactions (§3.6, §5.2)
    # ------------------------------------------------------------------

    def _execute(self, req: int, prov: int) -> Estimate:
        """The operator: one trust query + settlement, in closed form."""
        cfg = self.config
        st = self.state
        m = int(st.live_len[req])
        if m == 0:
            # No trusted agents: blind prior, no settlement.
            return Estimate(0.5, float("nan"))
        order = selection_order(
            st.live_val[req, :m], st.live_upd[req, :m], self._peer_rngs[req]
        )
        selected = [int(r) for r in order[: cfg.agents_queried]]
        self._ensure_onion(req)
        subject = _nid(prov)
        truth = float(self.truth[prov])

        # Request leg: one nonce per consulted agent, hop-counted delivery
        # through the stored (possibly stale) agent-entry onion.  While
        # every node is online the accounting collapses: nothing has ever
        # been rebuilt, every entry onion is the owner's current path,
        # every hop is alive, so a send costs plen+1 and always arrives.
        fast = not self.network.any_offline and not st.tracked
        # Nothing else draws from the requestor's stream inside a leg, so
        # the leg's nonces come as one batch (see docs/architecture.md).
        self._nonces(req).issue_many(len(selected))
        sel_hosts = st.live_ip[req, np.asarray(selected, dtype=np.int64)]
        # ``delivered``: (row, host, hops the request took) per reached agent.
        if fast:
            sel_plens = self._own_plen[sel_hosts]
            request_messages = int((sel_plens + 1).sum())
            delivered = [
                (row, host, plen + 1)
                for row, host, plen in zip(
                    selected, sel_hosts.tolist(), sel_plens.tolist()
                )
            ]
        else:
            asked = sel_hosts.tolist()
            request_messages, sent = self._send_leg(req, selected, asked)
            delivered = [leg for leg in zip(selected, asked, sent) if leg[2]]
            # Each reached agent freshens its own onion before it answers.
            # Only rebuilds and their handshakes draw, on per-peer streams
            # no vote touches, so all of them may go first — in delivery
            # order, which is the order the response loop had them in.
            self._ensure_onions([host for _, host, _ in delivered])
        self.counter.count(Category.TRUST_QUERY, request_messages)

        # Response leg: each reached agent freshens its own onion, learns
        # the requestor if unknown, evaluates, and answers through the
        # requestor's onion (whose relays were all alive at ensure time,
        # and liveness is static within the transaction → always arrives).
        response_messages = 0
        rows: list[int] = []
        hosts: list[int] = []
        values: list[float] = []
        request_hops: list[int] = []
        own_hops = int(self._own_plen[req]) + 1
        for row, host, hops in delivered:
            # HiRepPeer.fresh_onion: with all relays alive and the path
            # built it is a pure seq bump (no draws, no state change), so
            # only the rebuild condition matters — and that is
            # _ensure_onions', run above for every leg but the fast one.
            if fast and not self._own_built[host]:
                self._ensure_onion(host)
            known = self._known.setdefault(host, set())
            if req not in known:
                known.add(req)
                self.keys_learned += 1
            value = float(self._models[host].evaluate(subject, truth, self._agent_rng[host]))
            response_messages += own_hops
            rows.append(row)
            hosts.append(host)
            values.append(value)
            request_hops.append(hops)
        if response_messages:
            self.counter.count(Category.TRUST_RESPONSE, response_messages)
        if st.tracked and rows:
            # Each response carried the agent's fresh onion; the requestor
            # adopts it for the row (refresh_onion).
            st.live.oid[req, rows] = self._own_oid[hosts]

        # One read per column, not two numpy scalars per answering row.
        row_val = st.live_val[req, :m].tolist()
        row_upd = st.live_upd[req, :m].tolist()
        weights = [row_val[row] * confidence(row_upd[row]) for row in rows]
        estimate = aggregate_estimate(values, weights)
        self.queries_completed += 1

        if rows:
            # Analytic stand-in for the DES clock: slowest request hop
            # chain plus the response chain, at mean per-hop latency, plus
            # FIFO serialization of the answers on the requestor's link.
            hops = max(request_hops) + own_hops
            response_time = hops * self._latency_mean
            if self.network.model_transmission:
                response_time += len(rows) * self.network.transmission_ms(
                    self.network.bandwidth.item(req), DEFAULT_MESSAGE_BYTES
                )
        else:
            response_time = float("nan")

        self._settle(req, rows, values, hosts, truth, subject)
        return Estimate(estimate, response_time, len(rows), len(selected))

    def _settle(
        self,
        req: int,
        rows: list[int],
        values: list[float],
        hosts: list[int],
        truth: float,
        subject: NodeID,
    ) -> None:
        """Expertise updates, eviction, parking, reports (settle_transaction)."""
        st = self.state
        cfg = self.config
        # 1. vectorized expertise EWMA over the answering rows
        if rows:
            idx = np.asarray(rows, dtype=np.int64)
            bits = np.array(
                [consistency_bit(v, truth) for v in values], dtype=np.float64
            )
            st.live_val[req, idx] = ewma_update(
                cfg.expertise_alpha, st.live_val[req, idx], bits
            )
            st.live_upd[req, idx] += 1
        # 2. hirep-θ eviction
        st.evict_below(req, cfg.eviction_threshold)
        # 3. park agents that went offline (positive expertise → backup)
        if self.network.any_offline:
            gone = ~self.network.online_mask[st.live_ip[req, : st.live_len[req]]]
            if gone.any():
                st.park_where(req, gone)
        # 4. signed transaction reports through the onion of each surviving
        #    agent that answered
        answered = set(hosts)
        m = int(st.live_len[req])
        fast = not self.network.any_offline and not st.tracked
        reporting = [
            (row, host)
            for row, host in enumerate(st.live_ip[req, :m].tolist())
            if host in answered
        ]
        # The report leg's nonces, one batch (as the request leg's).
        self._nonces(req).issue_many(len(reporting))
        if fast:
            report_messages = sum(int(self._own_plen[host]) + 1 for _, host in reporting)
        else:
            report_messages, sent = self._send_leg(
                req, [row for row, _ in reporting], [host for _, host in reporting]
            )
            reporting = [leg for leg, hops in zip(reporting, sent) if hops]
        for _, host in reporting:
            # Spoofing defence: an agent only accepts reports from
            # requestors whose key it learned during a trust request.
            if req in self._known.get(host, ()):
                self._models[host].observe_report(subject, truth)
                self.reports_accepted += 1
            else:
                self.reports_rejected += 1
        if report_messages:
            self.counter.count(Category.TRANSACTION_REPORT, report_messages)

    # ------------------------------------------------------------------
    # Helpers (HiRepSystem-compatible surface)
    # ------------------------------------------------------------------

    def truth_key(self, ip: int) -> NodeID:
        """The nodeID trust queries about peer ``ip`` are keyed by."""
        return _nid(ip)

    def state_nbytes(self) -> int:
        """Resident bytes of the trust-state arrays (docs/benchmarks)."""
        nbytes = self.state.nbytes() + int(
            self._own_path.nbytes + self._own_plen.nbytes + self._own_built.nbytes
        )
        if self._onions is not None:
            nbytes += self._onions.nbytes() + int(self._own_oid.nbytes)
        return nbytes
