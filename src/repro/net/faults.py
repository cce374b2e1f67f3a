"""Composable, seeded fault injection for the simulated network.

The paper's resilience story (§3.4.3 backup cache, §4.2 DoS recovery)
assumes peers that *notice* failures — yet a perfectly reliable
:class:`~repro.net.network.P2PNetwork` never exercises that machinery.
This module supplies the missing failure model: a :class:`FaultPlane`
installed on a network intercepts every :meth:`~repro.net.network.P2PNetwork.send`
and lets a stack of :class:`FaultModel` instances drop the message, delay
it, or (via scheduled crash windows) take whole nodes down and bring them
back.  Everything a model does is accounted in :class:`FaultStats`, the
fault-side twin of :class:`~repro.sim.metrics.MessageCounter`.

Determinism contract:

* the plane owns its **own** ``numpy`` generator seeded at construction —
  installing faults never perturbs the topology/key/workload streams, so a
  run with faults disabled is bit-identical to one where this module was
  never imported;
* for a fixed seed, topology and workload, every drop/spike/crash decision
  is reproducible, hence ``FaultStats`` totals are too.

Models compose: the plane asks each model in order; the first drop wins
(later models never see the message), extra latencies add up.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.net.messages import NetMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import P2PNetwork

__all__ = [
    "FaultStats",
    "FaultVerdict",
    "FaultModel",
    "MessageLoss",
    "LatencySpike",
    "CrashSchedule",
    "CrashWindow",
    "Bisection",
    "FaultPlane",
    "staggered_crash_windows",
]


@dataclass
class FaultStats:
    """Cumulative accounting of everything the fault plane injected."""

    messages_seen: int = 0
    drops: int = 0
    drops_by_category: Counter = field(default_factory=Counter)
    drops_by_model: Counter = field(default_factory=Counter)
    latency_spikes: int = 0
    spike_ms_total: float = 0.0
    crashes: int = 0
    recoveries: int = 0

    def record_drop(self, model: str, category: str) -> None:
        self.drops += 1
        self.drops_by_category[category] += 1
        self.drops_by_model[model] += 1

    def record_spike(self, extra_ms: float) -> None:
        self.latency_spikes += 1
        self.spike_ms_total += extra_ms

    def as_dict(self) -> dict[str, float]:
        """Flat summary (stable keys) for experiment exports."""
        out: dict[str, float] = {
            "messages_seen": self.messages_seen,
            "drops": self.drops,
            "latency_spikes": self.latency_spikes,
            "spike_ms_total": self.spike_ms_total,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
        }
        for cat in sorted(self.drops_by_category):
            out[f"drops[{cat}]"] = self.drops_by_category[cat]
        for model in sorted(self.drops_by_model):
            out[f"drops<{model}>"] = self.drops_by_model[model]
        return out


@dataclass(frozen=True)
class FaultVerdict:
    """One model's decision about one in-flight message."""

    drop: bool = False
    extra_latency_ms: float = 0.0


#: Shared "no fault" verdict (immutable, so safe to reuse).
FaultVerdict.PASS = FaultVerdict()  # type: ignore[attr-defined]


class FaultModel:
    """Base class: inspect one message at send time, return a verdict.

    Subclasses may also override :meth:`install` to schedule time-driven
    behaviour (crashes) on the engine when the plane is attached.
    """

    #: Name used in ``FaultStats.drops_by_model`` buckets.
    name: str = "fault"

    def on_send(
        self,
        msg: NetMessage,
        now: float,
        rng: np.random.Generator,
        stats: FaultStats,
    ) -> FaultVerdict:
        return FaultVerdict.PASS

    def install(self, network: "P2PNetwork", stats: FaultStats) -> None:
        """Hook called once when the plane is installed on a network."""


def _check_prob(name: str, p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"{name} must be in [0,1], got {p}")
    return float(p)


class MessageLoss(FaultModel):
    """Uniform (or per-category) Bernoulli message loss.

    Parameters
    ----------
    prob:
        Loss probability applied to every message, or — when ``category``
        is given — only to messages of that accounting category.
    category:
        Optional :class:`~repro.net.messages.Category` constant to scope
        the loss to (e.g. only ``trust_response`` traffic).
    """

    name = "message_loss"

    def __init__(self, prob: float, category: str | None = None) -> None:
        self.prob = _check_prob("prob", prob)
        self.category = category

    def on_send(self, msg, now, rng, stats):
        if self.category is not None and msg.category != self.category:
            return FaultVerdict.PASS
        if self.prob > 0.0 and rng.random() < self.prob:
            return FaultVerdict(drop=True)
        return FaultVerdict.PASS


class LatencySpike(FaultModel):
    """Occasional latency spikes: with ``prob``, add ``spike_ms`` of delay.

    ``jitter_ms`` adds a uniform [0, jitter_ms) component on top so spikes
    do not all land on the exact same offset.
    """

    name = "latency_spike"

    def __init__(self, prob: float, spike_ms: float, jitter_ms: float = 0.0) -> None:
        self.prob = _check_prob("prob", prob)
        if spike_ms < 0 or jitter_ms < 0:
            raise ConfigError(
                f"spike_ms/jitter_ms must be >= 0, got {spike_ms}/{jitter_ms}"
            )
        self.spike_ms = float(spike_ms)
        self.jitter_ms = float(jitter_ms)

    def on_send(self, msg, now, rng, stats):
        if self.prob > 0.0 and rng.random() < self.prob:
            extra = self.spike_ms
            if self.jitter_ms > 0.0:
                extra += float(rng.random()) * self.jitter_ms
            return FaultVerdict(extra_latency_ms=extra)
        return FaultVerdict.PASS


@dataclass(frozen=True)
class CrashWindow:
    """Node ``node`` is offline during ``[start_ms, end_ms)``.

    ``end_ms`` may be ``inf`` for a crash with no recovery.
    """

    node: int
    start_ms: float
    end_ms: float = math.inf

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.end_ms < self.start_ms:
            raise ConfigError(
                f"invalid crash window [{self.start_ms}, {self.end_ms})"
            )


class CrashSchedule(FaultModel):
    """Scheduled node crash/recovery windows, driven by the DES engine.

    At install time each window schedules a crash event (node forced
    offline) and, for finite windows, a recovery event.  Crashing is
    idempotent with churn: a node already offline at crash time still
    counts as a crash, and recovery simply sets it online.
    """

    name = "crash_schedule"

    def __init__(self, windows: Iterable[CrashWindow | tuple] = ()) -> None:
        self.windows: list[CrashWindow] = [
            w if isinstance(w, CrashWindow) else CrashWindow(*w) for w in windows
        ]

    def add(self, node: int, start_ms: float, end_ms: float = math.inf) -> None:
        self.windows.append(CrashWindow(node, start_ms, end_ms))

    def install(self, network: "P2PNetwork", stats: FaultStats) -> None:
        engine = network.engine
        for w in self.windows:

            def crash(node: int = w.node) -> None:
                network.set_online(node, False)
                stats.crashes += 1

            engine.schedule(max(w.start_ms, engine.now), crash)
            if math.isfinite(w.end_ms):

                def recover(node: int = w.node) -> None:
                    network.set_online(node, True)
                    stats.recoveries += 1

                engine.schedule(max(w.end_ms, engine.now), recover)


def staggered_crash_windows(
    network_size: int,
    crash_fraction: float,
    *,
    exclude: set[int] | None = None,
    stagger_ms: float = 1_000.0,
    down_ms: float = 8_000.0,
) -> list[CrashWindow]:
    """Deterministic staggered crash windows over ``crash_fraction`` nodes.

    Nodes are picked by even stride (no RNG, so sweep cells differ only in
    the knob under study); each victim crashes ``stagger_ms`` after the
    previous one and stays dead for ``down_ms`` — long enough to span
    several transactions, short enough that recovery is observable within
    a run.  Shared by the degradation sweep and the campaign engine's
    :class:`~repro.campaigns.specs.FaultSpec`.
    """
    exclude = exclude or set()
    count = int(round(crash_fraction * network_size))
    if count <= 0:
        return []
    stride = max(1, network_size // count)
    victims = [n for n in range(1, network_size, stride) if n not in exclude]
    return [
        CrashWindow(
            node=node,
            start_ms=stagger_ms * (i + 1),
            end_ms=stagger_ms * (i + 1) + down_ms,
        )
        for i, node in enumerate(victims[:count])
    ]


class Bisection(FaultModel):
    """A network partition: traffic crossing the cut is dropped.

    ``left`` is one side of the bisection; everything else is the other.
    The partition is active during ``[start_ms, end_ms)`` (defaults to
    always-on).  Messages within either side pass untouched.
    """

    name = "bisection"

    def __init__(
        self,
        left: Iterable[int],
        *,
        start_ms: float = 0.0,
        end_ms: float = math.inf,
    ) -> None:
        if start_ms < 0 or end_ms < start_ms:
            raise ConfigError(f"invalid partition window [{start_ms}, {end_ms})")
        self.left = frozenset(int(i) for i in left)
        self.start_ms = float(start_ms)
        self.end_ms = float(end_ms)

    def on_send(self, msg, now, rng, stats):
        if not (self.start_ms <= now < self.end_ms):
            return FaultVerdict.PASS
        if (msg.src in self.left) != (msg.dst in self.left):
            return FaultVerdict(drop=True)
        return FaultVerdict.PASS


class FaultPlane:
    """A seeded stack of fault models attached to one network.

    Usage::

        plane = FaultPlane([MessageLoss(0.2)], seed=7)
        plane.install(system.network) # before any traffic flows
        ...
        plane.stats.drops             # deterministic for a fixed seed

    The plane draws from its own generator so the rest of the simulation's
    RNG streams are untouched — disabling faults reproduces the fault-free
    run bit for bit.
    """

    def __init__(
        self,
        models: Sequence[FaultModel],
        *,
        seed: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.models = list(models)
        for model in self.models:
            if not isinstance(model, FaultModel):
                raise ConfigError(f"not a FaultModel: {model!r}")
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.stats = FaultStats()
        self._installed_on: "P2PNetwork | None" = None

    def install(self, network: "P2PNetwork") -> "FaultPlane":
        """Attach to ``network`` (idempotent on the same network); an
        executor that refuses fault planes raises :class:`ConfigError`."""
        from repro.core.registry import refuse

        refuse(network.executor, "fault")
        if self._installed_on is network:
            return self
        if self._installed_on is not None:
            raise ConfigError("FaultPlane is already installed on another network")
        network.faults = self
        self._installed_on = network
        for model in self.models:
            model.install(network, self.stats)
        return self

    def on_send(self, msg: NetMessage, now: float) -> FaultVerdict:
        """Combined verdict for one message (first drop wins)."""
        self.stats.messages_seen += 1
        extra = 0.0
        for model in self.models:
            verdict = model.on_send(msg, now, self.rng, self.stats)
            if verdict.drop:
                self.stats.record_drop(model.name, msg.category)
                return FaultVerdict(drop=True, extra_latency_ms=extra)
            if verdict.extra_latency_ms > 0.0:
                self.stats.record_spike(verdict.extra_latency_ms)
                extra += verdict.extra_latency_ms
        return FaultVerdict(extra_latency_ms=extra)
