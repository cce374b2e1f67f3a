"""hirep-e2e measurement core: the five workloads and how one run is measured.

One *run* measures one workload in this process, in identical **rounds**.
A round is the whole life of one system on a fresh instance:

1. **set-up** — config → system constructed and bootstrapped;
2. **run** — ``Workload.round_tx`` closed-loop transactions, timed in
   batches of ``Workload.batch_tx``;
3. **teardown** — ``down()`` where the executor has one, then release.

Rounds repeat until ``seconds`` of these phases have been measured (three
rounds at least).  Every round of one seed does exactly the same work, so
the only thing that differs between rounds is the host: on a shared box
its speed drifts by 40 % from one minute to the next.  Each timed piece
(set-up, batch, teardown) is therefore *calibrated* — divided by the host
slowdown that :func:`host_slowdown` samples right before and after it — and
a metric takes the median over rounds of each piece.

The three executors are driven only through their public entry points:
``build_system`` / ``bootstrap`` / ``reset_metrics`` / ``run_transaction``
for the two kernels, ``ServeSystem.up`` / ``LoadGenerator.run`` / ``down``
for the live plane.  The simulated statistics of a round depend only on the
seed, so they are hashed and checked, and every round must reproduce them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, ContextManager

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

try:
    import repro  # noqa: F401
except ImportError:  # run from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(REPO / "src"))

import numpy as np

from repro import build_system
from repro.core.interface import Outcome
from repro.core.semantics import TRUST_TRAFFIC_CATEGORIES
from repro.net.churn import ChurnModel
from repro.obs.clock import WallClock
from repro.obs.prof import max_rss_kb
from repro.onion.routing import expected_onion_messages
from repro.serve.load import LoadGenerator, build_trace
from repro.workloads.scenarios import default_config

from tracing import ROOT_CATEGORY, WRAPS, Tracer

__all__ = [
    "E2E_UNITS",
    "GOLDEN_PATH",
    "LAYER_UNITS",
    "CALIBRATION_REFERENCE_MS",
    "MIN_ROUNDS",
    "WORKLOADS",
    "Measurement",
    "Round",
    "Timed",
    "Workload",
    "check",
    "e2e_metrics",
    "golden_key",
    "layer_metrics",
    "load_golden",
    "measure",
    "measure_traced",
    "workload",
]

GOLDEN_PATH = HERE / "golden.json"

#: Fewest rounds a run measures, however small ``--seconds`` is.
MIN_ROUNDS = 3


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One set of inputs; sizes are per round, derived from nothing but these."""

    name: str
    why: str
    executor: str  # registry name: "hirep", "hirep-array" or "serve"
    network_size: int
    nominal_tx: int  # the whole run ``total_s`` and the layer shares are quoted for
    round_tx: int  # transactions per round
    batch_tx: int  # transactions per timed batch; divides ``round_tx``
    bootstrap_mode: str | None = None  # array kernel only
    churn: tuple[float, float] | None = None  # (leave, rejoin) per transaction
    clients: int = 1  # closed-loop clients (serve only; kernels have one)
    full_answers: bool = True  # every asked agent must answer (no churn, no loss)

    def smoke(self) -> "Workload":
        """The ÷10 scale the harness tests run at; never benchmarked."""
        batch_tx = max(self.batch_tx // 10, 1)
        return replace(
            self,
            network_size=max(self.network_size // 10, 32),
            nominal_tx=max(self.nominal_tx // 10, 1),
            round_tx=batch_tx * (self.round_tx // self.batch_tx),
            batch_tx=batch_tx,
        )


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="paper-object",
        why="Table 1 config on the object kernel: per-message DES, onion routing "
        "and HiRepPeer query/settle/report are the run, protocol bootstrap the set-up.",
        executor="hirep",
        network_size=1000,
        nominal_tx=2000,
        round_tx=300,
        batch_tx=100,
    ),
    Workload(
        name="bootstrap-array",
        why="Array kernel with protocol bootstrap: the discovery flood, ranking and "
        "onion build are >95% of the whole run, so a steady-state change must not move it.",
        executor="hirep-array",
        network_size=1500,
        nominal_tx=300,
        round_tx=1500,
        batch_tx=500,
        bootstrap_mode="protocol",
    ),
    Workload(
        name="scale-array",
        why="100k peers, seeded bootstrap, no churn: topology/network build, the "
        "all-online fast path and memory dominate; a bootstrap change must not move it.",
        executor="hirep-array",
        network_size=100_000,
        nominal_tx=40_000,
        round_tx=4000,
        batch_tx=1000,
        bootstrap_mode="seeded",
    ),
    Workload(
        name="churn-array",
        why="Same array kernel under churn: liveness flips every transaction, path "
        "snapshots materialise, backups get probed; a fast-path gain that costs this path shows.",
        executor="hirep-array",
        network_size=20_000,
        nominal_tx=10_000,
        round_tx=2000,
        batch_tx=500,
        bootstrap_mode="seeded",
        churn=(0.01, 0.2),
        full_answers=False,
    ),
    Workload(
        name="serve-inproc",
        why="Live actor fleet over the in-process transport, two closed-loop clients: "
        "the only path through codec, transport and actor dispatch; kernel changes must not move it.",
        executor="serve",
        network_size=64,
        nominal_tx=600,
        round_tx=60,
        batch_tx=10,
        clients=2,
    ),
)


def workload(name: str, *, smoke: bool = False) -> Workload:
    for wl in WORKLOADS:
        if wl.name == name:
            return wl.smoke() if smoke else wl
    known = ", ".join(wl.name for wl in WORKLOADS)
    raise SystemExit(f"unknown workload {name!r} (known: {known})")


# ---------------------------------------------------------------------------
# Sessions: one constructed system and the way to drive it
# ---------------------------------------------------------------------------


def _span(tracer: Tracer | None, name: str, **kw: Any) -> ContextManager[Any]:
    """A span on ``tracer``, or nothing when the run is untraced."""
    return tracer.span(name, **kw) if tracer is not None else nullcontext()


@dataclass
class Batch:
    """One timed batch of closed-loop transactions."""

    wall_ms: float
    outcomes: list[Outcome]
    latencies_ms: list[float]
    errors: list[str]


class KernelSession:
    """``hirep`` / ``hirep-array`` through the registry and the kernel API."""

    def __init__(self, wl: Workload, seed: int, tracer: Tracer | None) -> None:
        self.wl = wl
        self.seed = seed
        # Harness-level spans exist only where the layer has no wrapped
        # public call of its own (the array kernel's build/bootstrap/run).
        self.tracer = tracer if wl.executor == "hirep-array" else None
        self.clock = WallClock()
        self.system: Any = None

    def setup(self) -> None:
        wl = self.wl
        opts: dict[str, Any] = {}
        if wl.bootstrap_mode is not None:
            opts["bootstrap_mode"] = wl.bootstrap_mode
        if wl.churn is not None:
            opts["churn"] = ChurnModel(*wl.churn)
        config = default_config(wl.network_size, self.seed)
        with _span(self.tracer, "vector.build"):
            self.system = build_system(wl.executor, config, **opts)
        with _span(self.tracer, "vector.bootstrap"):
            self.system.bootstrap()
        self.system.reset_metrics()

    def run_batch(self, count: int) -> Batch:
        # ``run(T)`` is by definition this loop (TransactionRuntime.run);
        # stepping it here is what yields per-transaction wall latency.
        clock, step = self.clock, self.system.run_transaction
        outcomes: list[Outcome] = []
        latencies: list[float] = []
        errors: list[str] = []
        with _span(self.tracer, "vector.run"):
            start = clock.now
            for _ in range(count):
                t0 = clock.now
                try:
                    outcomes.append(step())
                except Exception as exc:  # a failed transaction is a result, not a crash
                    errors.append(f"{type(exc).__name__}: {exc}")
                latencies.append(clock.now - t0)
            wall_ms = clock.now - start
        return Batch(wall_ms, outcomes, latencies, errors)

    def counters(self) -> dict[str, float]:
        system = self.system
        out = {"net.sends": float(system.counter.total)}
        if system.churn is not None:
            stats = system.churn.stats
            out["net.churn_flips"] = float(stats.departures + stats.rejoins)
        return out

    def gauges(self) -> dict[str, float]:
        nbytes = getattr(self.system, "state_nbytes", None)
        if nbytes is None:
            return {}
        return {"vector.state_bytes_per_peer": nbytes() / self.wl.network_size}

    def teardown(self) -> None:
        self.system = None
        gc.collect()


class ServeSession:
    """``ServeSystem`` on the in-process transport, loaded by ``LoadGenerator``."""

    def __init__(self, wl: Workload, seed: int, tracer: Tracer | None) -> None:
        self.wl = wl
        self.seed = seed
        self.tracer = tracer
        self.clock = WallClock()
        self.system: Any = None
        self._trace: list[Any] = []

    def setup(self) -> None:
        wl = self.wl
        with _span(self.tracer, "workloads.trace_build"):
            self._trace = build_trace(
                "pooled", wl.network_size, wl.round_tx, np.random.default_rng(self.seed)
            )
        self.system = build_system(
            "serve", default_config(wl.network_size, self.seed), transport="inproc"
        )
        with _span(self.tracer, "serve.up"):
            self.system.up()
        self.system.reset_metrics()

    def run_batch(self, count: int) -> Batch:
        chunk, self._trace = self._trace[:count], self._trace[count:]
        load = LoadGenerator(self.system, chunk, concurrency=self.wl.clients)
        start = self.clock.now
        report = load.run()
        wall_ms = self.clock.now - start
        latencies = [o.response_time_ms for o in report.outcomes]
        return Batch(wall_ms, report.outcomes, latencies, report.errors)

    def counters(self) -> dict[str, float]:
        transport = self.system.transport
        return {
            "net.sends": float(self.system.counter.total),
            "serve.frames_posted": float(transport.frames_posted),
            "serve.bytes_posted": float(transport.bytes_posted),
        }

    def gauges(self) -> dict[str, float]:
        spans = self.system.telemetry.spans

        def quantile(name: str, q: int) -> float:
            values = [s.duration_ms for s in spans.spans(name) if s.finished]
            if len(values) < 2:
                return 0.0
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        return {
            "serve.query_phase_p50_ms": quantile("query", 50),
            "serve.report_phase_p50_ms": quantile("report", 50),
            "serve.tx_latency_p95_ms": quantile("transaction", 95),
        }

    def teardown(self) -> None:
        with _span(self.tracer, "serve.down"):
            self.system.down()
        self.system = None
        gc.collect()


# ---------------------------------------------------------------------------
# Measuring one run
# ---------------------------------------------------------------------------


#: Wall ms of one calibration loop on the reference box when nothing else runs.
CALIBRATION_REFERENCE_MS = 5.6


def host_slowdown(clock: WallClock, samples: int = 3) -> float:
    """How much slower than the reference this host runs right now.

    A fixed pure-Python loop, timed ``samples`` times.  On a shared host the
    same loop takes 5.6 ms or 8 ms depending on the minute, and everything
    else slows down with it; sampled around a timed piece it says by how
    much that piece was stretched.
    """
    t0 = clock.now
    for _ in range(samples):
        acc = 0
        for i in range(100_000):
            acc += i * i
    return (clock.now - t0) / samples / CALIBRATION_REFERENCE_MS


@dataclass
class Timed:
    """One timed piece: its wall time and the host slowdown sampled around it."""

    wall_ms: float
    slowdown: float

    @property
    def ms(self) -> float:
        """Calibrated: the wall time this piece takes at reference host speed."""
        return self.wall_ms / self.slowdown


@dataclass
class Round:
    """One system's whole life: set-up, ``round_tx`` transactions, teardown."""

    setup: Timed
    batches: list[Timed] = field(default_factory=list)
    teardown: Timed | None = None
    latencies_ms: list[list[float]] = field(default_factory=list)  # wall, per batch
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)  # deltas over the run phase
    gauges: dict[str, float] = field(default_factory=dict)
    # simulated statistics: functions of the seed only
    sim: dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        pieces = [self.setup, *self.batches, self.teardown]
        return sum(piece.wall_ms for piece in pieces) / 1000.0

    @property
    def latency_p50_ms(self) -> float:
        """Median calibrated wall ms of one transaction."""
        return statistics.median(
            ms / batch.slowdown
            for batch, latencies in zip(self.batches, self.latencies_ms)
            for ms in latencies
        )


@dataclass
class Measurement:
    """The rounds of one measured run and the metrics folded from them.

    Every round does the same work, so each piece (set-up, batch i,
    teardown) has one calibrated time per round; the metric takes the median
    over rounds of each piece.
    """

    workload: Workload
    seed: int
    rounds: list[Round] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return statistics.median(r.setup.ms for r in self.rounds) / 1000.0

    @property
    def teardown_s(self) -> float:
        return statistics.median(r.teardown.ms for r in self.rounds) / 1000.0

    @property
    def run_s(self) -> float:
        """One round's run phase: the sum of its batches' medians."""
        per_batch = zip(*(r.batches for r in self.rounds))
        return sum(statistics.median(b.ms for b in batch) for batch in per_batch) / 1000.0

    @property
    def tx_per_s(self) -> float:
        return self.workload.round_tx / self.run_s

    @property
    def tx_latency_p50_ms(self) -> float:
        return statistics.median(r.latency_p50_ms for r in self.rounds)

    @property
    def total_s(self) -> float:
        """One nominal whole run: set-up + ``nominal_tx`` transactions + teardown."""
        return self.setup_s + self.workload.nominal_tx / self.tx_per_s + self.teardown_s

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    @property
    def sim(self) -> dict[str, Any]:
        return self.rounds[0].sim


def _unanswered(outcome: Outcome, wl: Workload) -> bool:
    """No estimate came back, or (where nothing can be offline) not from everyone."""
    if outcome.answered == 0:
        return True
    return wl.full_answers and outcome.answered < outcome.asked


def _round(wl: Workload, seed: int, tracer: Tracer | None, clock: WallClock) -> Round:
    def phase(name: str) -> ContextManager[Any]:
        return _span(tracer, name, category=ROOT_CATEGORY)

    session = (ServeSession if wl.executor == "serve" else KernelSession)(wl, seed, tracer)
    gc.collect()
    before = host_slowdown(clock)
    t0 = clock.now
    with phase("setup"):
        session.setup()
    wall_ms = clock.now - t0
    after = host_slowdown(clock)
    r = Round(Timed(wall_ms, (before + after) / 2.0))

    gc.collect()
    digest = hashlib.sha256()
    counters = session.counters()
    while r.attempted < wl.round_tx:
        before = after
        with phase("run"):
            batch = session.run_batch(wl.batch_tx)
        after = host_slowdown(clock)
        r.batches.append(Timed(batch.wall_ms, (before + after) / 2.0))
        r.latencies_ms.append(batch.latencies_ms)
        r.attempted += wl.batch_tx
        r.failed += len(batch.errors) + sum(_unanswered(o, wl) for o in batch.outcomes)
        r.errors += batch.errors
        for o in batch.outcomes:
            row = (o.requestor, o.provider, o.answered, o.asked,
                   o.trust_messages, o.total_messages, round(o.estimate, 9))
            digest.update(repr(row).encode())
    system = session.system
    sent = dict(system.counter.by_category)
    digest.update(json.dumps(sent, sort_keys=True).encode())
    r.sim = {
        "sim_digest": digest.hexdigest(),
        # From the category counters, not Outcome.trust_messages: concurrent
        # clients' per-transaction deltas overlap.
        "trust_msgs_per_tx": sum(sent.get(c, 0) for c in TRUST_TRAFFIC_CATEGORIES)
        / max(len(system.outcomes), 1),
        "mse": float(system.mse.mse()),
    }
    r.counters = {key: value - counters[key] for key, value in session.counters().items()}
    r.gauges = session.gauges()

    before = after
    t0 = clock.now
    with phase("teardown"):
        session.teardown()
    wall_ms = clock.now - t0
    r.teardown = Timed(wall_ms, (before + host_slowdown(clock)) / 2.0)
    return r


def measure(
    wl: Workload,
    seed: int,
    seconds: float,
    *,
    min_rounds: int = MIN_ROUNDS,
    tracer: Tracer | None = None,
) -> Measurement:
    """Measure rounds of ``wl`` for ``seconds``; with a tracer, under root phase spans."""
    clock = WallClock()
    m = Measurement(wl, seed)
    while len(m.rounds) < min_rounds or sum(r.wall_s for r in m.rounds) < seconds:
        m.rounds.append(_round(wl, seed, tracer, clock))
    return m


def measure_traced(wl: Workload, seed: int, seconds: float) -> tuple[Measurement, Measurement, Tracer]:
    """An untraced reference round, then the traced rounds, in one process.

    Comparing the two nominal totals is the tracing overhead, and their
    simulated statistics must agree (tracing changes no outcome).  The
    traced side gets two thirds of ``seconds`` so that the whole traced run
    costs about what an untraced one does.
    """
    reference = measure(wl, seed, 0.0, min_rounds=1)
    tracer = Tracer()
    with tracer.installed():
        traced = measure(wl, seed, seconds * 2.0 / 3.0, min_rounds=2, tracer=tracer)
    return reference, traced, tracer


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: End-to-end metrics (``--trace 0``) and their units; BENCHMARK.json fixes
#: each one's direction and bound.  ``failed_share`` is not among them
#: because it is 0 on a correct run: it travels as ``failed``/``attempted``.
E2E_UNITS: dict[str, str] = {
    "setup_s": "s",
    "tx_per_s": "1/s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "tx_latency_p50_ms": "ms",
    "trust_msgs_per_tx": "count",
    "mse": "1",
}

#: Traced spans → the name of their call-count metric (None: not reported).
LAYER_SPANS: dict[str, str | None] = {
    "net.topology_build": None,
    "net.network_build": None,
    "net.churn_step": None,
    "crypto.keygen": "crypto.keygen_ops",
    "onion.build": "onion.build_ops",
    "sim.run": None,
    "core.wiring": None,
    "core.bootstrap": None,
    "core.discover": "core.discover_calls",
    "core.flood": "core.flood_calls",
    "core.rank": None,
    "core.maintain": None,
    "core.query": None,
    "core.query_start": None,
    "core.settle": None,
    "core.dispatch": "core.dispatch_calls",
    "core.wire_encode": "core.wire_frames",
    "core.wire_decode": None,
    "serve.checkpoint": "serve.checkpoints",
    "serve.post": None,
    "serve.deliver": None,
    "vector.build": None,
    "vector.bootstrap": None,
    "vector.run": None,
    "serve.up": None,
    "serve.down": None,
    "workloads.trace_build": None,
}

LAYER_UNITS: dict[str, str] = {
    **{f"{span}_s": "s" for span in LAYER_SPANS},
    **{f"{span}.self_s": "s" for span in LAYER_SPANS},
    **{calls: "count" for calls in LAYER_SPANS.values() if calls is not None},
    "serve.drain_s": "s",
    "sim.events": "count",
    "core.wire_bytes": "count",
    "net.sends": "count",
    "net.host_us_per_msg": "us",
    "net.churn_flips": "count",
    "serve.frames_posted": "count",
    "serve.bytes_posted": "count",
    "vector.us_per_tx": "us",
    "vector.state_bytes_per_peer": "count",
    "serve.query_phase_p50_ms": "ms",
    "serve.report_phase_p50_ms": "ms",
    "serve.tx_latency_p95_ms": "ms",
    "trace.total_s": "s",
    "trace.other_s": "s",
    "trace.overhead_share": "%",
    "trace.spans": "count",
}

assert {w.span for w in WRAPS} - {"serve.drain"} <= set(LAYER_SPANS)


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict[str, Any]]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def e2e_metrics(m: Measurement) -> dict[str, dict[str, Any]]:
    """The end-to-end metrics of an untraced measurement, by name with unit."""
    values = {
        "setup_s": m.setup_s,
        "tx_per_s": m.tx_per_s,
        "total_s": m.total_s,
        "peak_rss_mb": max_rss_kb() / 1024.0,
        "tx_latency_p50_ms": m.tx_latency_p50_ms,
        "trust_msgs_per_tx": m.sim["trust_msgs_per_tx"],
        "mse": m.sim["mse"],
    }
    return _with_units(values, E2E_UNITS)


def layer_metrics(
    reference: Measurement, traced: Measurement, tracer: Tracer
) -> dict[str, dict[str, Any]]:
    """Per-layer metrics, each folded to one nominal whole run of the workload.

    ``_s`` is wall inclusive at the wrapped call, ``.self_s`` the same minus
    its child spans, both averaged over the traced rounds; counts and
    counters are scaled the same way, so everything reads as "per one set-up
    plus ``nominal_tx`` transactions plus one teardown".
    """
    wl = traced.workload
    per_round = 1.0 / len(traced.rounds)
    per_run = wl.nominal_tx / wl.round_tx
    totals = tracer.totals(
        {"setup": per_round, "run": per_round * per_run, "teardown": per_round}
    )
    values = dict.fromkeys(LAYER_UNITS, 0.0)
    for span, calls in LAYER_SPANS.items():
        layer = totals.layers.get(span)
        if layer is None:
            continue
        values[f"{span}_s"] = layer.inclusive_ms / 1000.0
        values[f"{span}.self_s"] = layer.self_ms / 1000.0
        if calls is not None:
            values[calls] = layer.calls
    values.update(totals.tallies)
    values["serve.drain_s"] = totals.waits_ms["serve.drain"] / 1000.0
    last = traced.rounds[-1]
    values.update({key: delta * per_run for key, delta in last.counters.items()})
    values.update(last.gauges)
    run_s = wl.nominal_tx / traced.tx_per_s
    if values["net.sends"]:
        values["net.host_us_per_msg"] = run_s * 1e6 / values["net.sends"]
    if wl.executor == "hirep-array":
        values["vector.us_per_tx"] = 1e6 / traced.tx_per_s
    values["trace.total_s"] = totals.total_ms / 1000.0
    values["trace.other_s"] = totals.other_ms / 1000.0
    values["trace.overhead_share"] = 100.0 * (traced.total_s / reference.total_s - 1.0)
    values["trace.spans"] = float(len(tracer.recorder))
    return _with_units(values, LAYER_UNITS)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, Any]:
    return json.loads(path.read_text())


def golden_key(wl: Workload, seed: int) -> str:
    """Goldens are per (workload, sizes, seed); only seed 2006 is committed."""
    return f"{wl.name}/n{wl.network_size}/tx{wl.round_tx}/seed{seed}"


def check(m: Measurement, golden: dict[str, Any] | None) -> list[str]:
    """Why this measurement is not correct (empty when it is)."""
    wl = m.workload
    problems = []
    if m.failed:
        errors = [error for r in m.rounds for error in r.errors]
        problems.append(
            f"{m.failed} of {m.attempted} transactions failed"
            + (f" (first: {errors[0]})" if errors else " (unanswered)")
        )
    if any(r.sim != m.sim for r in m.rounds):
        problems.append(f"rounds of seed {m.seed} disagree: {[r.sim for r in m.rounds]}")
    config = default_config(wl.network_size, m.seed)
    # request + response + report legs, one onion traversal each (Fig. 5's O(C))
    bound = 3 * config.agents_queried * expected_onion_messages(config.onion_relays)
    if not 0 < m.sim["trust_msgs_per_tx"] <= bound:
        problems.append(
            f"trust_msgs_per_tx {m.sim['trust_msgs_per_tx']} outside (0, {bound}] = 3*C*(o+1)"
        )
    want = None if golden is None else golden.get(golden_key(wl, m.seed))
    if want is not None and want != m.sim:
        problems.append(f"golden mismatch: want {want}, got {m.sim}")
    return problems
