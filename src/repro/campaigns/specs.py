"""The scenario DSL: frozen, canonically-hashable adversarial specs.

A scenario composes five orthogonal planes the repo already implements —
attacks (:mod:`repro.attacks`), faults (:mod:`repro.net.faults`), churn
(:mod:`repro.net.churn`), topology (:mod:`repro.net.topology` via the
config), and workload — into one declarative record:

    ScenarioSpec = AttackSpec x FaultSpec x ChurnSpec x TopologySpec
                   x WorkloadSpec

A :class:`Campaign` is a named sweep over scenarios x systems x seeds that
compiles (:meth:`Campaign.compile`) into plain
:class:`~repro.exec.job.JobSpec` lists, so campaign cells inherit the
orchestrator's canonical hashing, content-addressed result cache,
process-pool fan-out, retry/timeout and ``--telemetry`` capture for free.

Every spec is a frozen dataclass of JSON-primitive fields with
``to_dict``/``from_dict`` round-trips and a :func:`spec_hash` content
address built on the same canonical JSON encoding the job layer uses —
two specs that would run the same cell hash identically, across processes
and ``PYTHONHASHSEED`` values.  Display-only ``name`` fields are excluded
from the hash (the same rule as ``JobSpec.label``), so renaming a
scenario never invalidates its cached cells.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigError
from repro.exec.job import JobSpec, canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import HiRepConfig
    from repro.net.churn import ChurnModel
    from repro.net.faults import FaultModel

__all__ = [
    "AttackSpec",
    "ATTACK_KINDS",
    "Campaign",
    "ChurnSpec",
    "FaultSpec",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "spec_hash",
]

#: module/function every compiled campaign cell executes.
CELL_MODULE = "repro.campaigns.cells"
CELL_FUNC = "campaign_cell"

#: attack classes the DSL can express (``none`` = clean cell).
ATTACK_KINDS = (
    "none",
    "sybil",
    "whitewash",
    "collusion",
    "oscillation",
    "recommendation",
    "dos",
    "spoofing",
)


def spec_hash(identity: dict) -> str:
    """SHA-256 content address of a spec's hashed identity dict."""
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()


def _check_fraction(name: str, value: float, upper: float = 1.0) -> None:
    if not 0.0 <= value <= upper:
        raise ConfigError(f"{name} must be in [0,{upper:g}], got {value}")


@dataclass(frozen=True)
class AttackSpec:
    """One attack class plus its intensity knobs.

    Field meaning depends on ``kind``:

    * ``sybil`` — ``count`` sybil identities on one host; ``fraction`` of
      nodes serve the sybil list during discovery.
    * ``whitewash`` — ``fraction`` of providers re-enter under fresh
      identities, in ``count`` waves starting after ``start`` transactions.
    * ``collusion`` — ``fraction`` of agents/voters collude (the paper's
      attacker-ratio interpretation: poor agents for hiREP, malicious
      voters for the baselines).
    * ``oscillation`` — ``fraction`` of agents build trust honestly for
      ``start`` evaluations and then turn; ``period`` makes the turn a
      duty cycle instead of permanent.
    * ``recommendation`` — ``fraction`` of nodes forge discovery replies
      (bad-mouth good agents, ballot-stuff poor ones).
    * ``dos`` — after ``start`` transactions the most-trusted agents
      (``fraction`` of them, at least two) go offline for ``period``
      transactions (§4.2.4).
    * ``spoofing`` — after ``start`` transactions a peer fires ``count``
      forged reports at the agent that knows the most identities (§4.2.2).

    Protocol-level attachment exists for hiREP (see
    :mod:`repro.campaigns.attach`); on systems without the hooks the spec
    falls back to the population-level interpretation (``fraction`` of
    participants malicious) — the same reading Fig. 7 uses for voting.
    """

    kind: str = "none"
    fraction: float = 0.0
    count: int = 0
    start: int = 0
    period: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(
                f"unknown attack kind {self.kind!r} (known: {', '.join(ATTACK_KINDS)})"
            )
        _check_fraction("fraction", self.fraction)
        if self.count < 0:
            raise ConfigError(f"count must be >= 0, got {self.count}")
        if self.start < 0:
            raise ConfigError(f"start must be >= 0, got {self.start}")
        if self.period is not None and self.period < 1:
            raise ConfigError(f"period must be >= 1, got {self.period}")
        if self.kind == "sybil" and self.count < 1:
            raise ConfigError("sybil attack needs count >= 1 identities")
        if self.kind == "whitewash" and (self.count < 1 or self.fraction <= 0):
            raise ConfigError("whitewash attack needs count >= 1 waves and fraction > 0")
        if self.kind in ("oscillation", "recommendation") and self.fraction <= 0:
            raise ConfigError(f"{self.kind} attack needs fraction > 0")
        if self.kind == "dos" and (self.fraction <= 0 or self.period is None):
            raise ConfigError("dos attack needs fraction > 0 and a period")
        if self.kind == "spoofing" and self.count < 1:
            raise ConfigError("spoofing attack needs count >= 1 attempts")
        # collusion allows fraction == 0: attacker-ratio sweeps include the
        # zero point, which still pins the config's attacker fields to 0.

    # -- constructors --------------------------------------------------------

    @classmethod
    def none(cls) -> "AttackSpec":
        return cls()

    @classmethod
    def sybil(cls, count: int = 15, compromised_fraction: float = 0.15) -> "AttackSpec":
        return cls(kind="sybil", count=count, fraction=compromised_fraction)

    @classmethod
    def whitewash(cls, fraction: float = 0.1, waves: int = 3, start: int = 10) -> "AttackSpec":
        return cls(kind="whitewash", fraction=fraction, count=waves, start=start)

    @classmethod
    def collusion(cls, ratio: float) -> "AttackSpec":
        return cls(kind="collusion", fraction=ratio)

    @classmethod
    def oscillation(
        cls, fraction: float = 0.3, build: int = 20, period: int | None = None
    ) -> "AttackSpec":
        return cls(kind="oscillation", fraction=fraction, start=build, period=period)

    @classmethod
    def recommendation(cls, fraction: float = 0.3) -> "AttackSpec":
        return cls(kind="recommendation", fraction=fraction)

    @classmethod
    def dos(cls, fraction: float = 0.25, start: int = 10, period: int = 10) -> "AttackSpec":
        return cls(kind="dos", fraction=fraction, start=start, period=period)

    @classmethod
    def spoofing(cls, attempts: int = 50, start: int = 10) -> "AttackSpec":
        return cls(kind="spoofing", count=attempts, start=start)

    # -- semantics -----------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.kind != "none"

    def transform_config(self, config: "HiRepConfig", *, protocol: bool) -> "HiRepConfig":
        """Apply the attack's population-level pressure to a config.

        ``protocol=True`` means the caller will *also* attach the
        protocol-level mechanism (sybil operator, discovery hook, model
        factory, identity resets), so only the knobs that mechanism needs
        are set.  ``protocol=False`` is the fallback interpretation for
        systems without the hooks: the attack degenerates to "``fraction``
        of the population is malicious" — exactly how Fig. 7 maps the
        attacker ratio onto the voting baseline.
        """
        if self.kind == "none":
            return config
        if self.kind == "collusion":
            # Collusion IS a population-level attack for every system.
            return config.with_(
                poor_agent_fraction=self.fraction, malicious_fraction=self.fraction
            )
        if self.kind == "oscillation" and protocol:
            # The turncoat fraction; the oscillating model itself arrives
            # via the build-time model factory.
            return config.with_(poor_agent_fraction=self.fraction)
        if not protocol:
            equivalent = self.fraction
            if self.kind == "sybil":
                equivalent = min(1.0, self.count / max(config.network_size, 1))
            return config.with_(
                malicious_fraction=max(config.malicious_fraction, equivalent)
            )
        return config

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "AttackSpec":
        return cls(
            kind=d.get("kind", "none"),
            fraction=float(d.get("fraction", 0.0)),
            count=int(d.get("count", 0)),
            start=int(d.get("start", 0)),
            period=None if d.get("period") is None else int(d["period"]),
        )


@dataclass(frozen=True)
class FaultSpec:
    """Declarative network-fault pressure, compiled to a ``FaultPlane``.

    * ``loss`` — uniform Bernoulli message-loss probability;
    * ``latency_prob``/``latency_ms``/``latency_jitter_ms`` — occasional
      latency spikes;
    * ``crash_fraction`` — staggered crash windows over that fraction of
      nodes (even stride, the degradation sweep's schedule);
    * ``bisection_fraction`` — partition the first ``fraction`` of node
      indices away from the rest during ``[bisection_start_ms,
      bisection_end_ms)``.
    """

    loss: float = 0.0
    latency_prob: float = 0.0
    latency_ms: float = 0.0
    latency_jitter_ms: float = 0.0
    crash_fraction: float = 0.0
    bisection_fraction: float = 0.0
    bisection_start_ms: float = 0.0
    bisection_end_ms: float | None = None

    def __post_init__(self) -> None:
        _check_fraction("loss", self.loss)
        _check_fraction("latency_prob", self.latency_prob)
        _check_fraction("crash_fraction", self.crash_fraction)
        _check_fraction("bisection_fraction", self.bisection_fraction)
        if self.latency_ms < 0 or self.latency_jitter_ms < 0:
            raise ConfigError("latency_ms/latency_jitter_ms must be >= 0")
        end = math.inf if self.bisection_end_ms is None else self.bisection_end_ms
        if self.bisection_start_ms < 0 or end < self.bisection_start_ms:
            raise ConfigError(
                f"invalid bisection window [{self.bisection_start_ms}, {end})"
            )

    @classmethod
    def clean(cls) -> "FaultSpec":
        return cls()

    @property
    def active(self) -> bool:
        return (
            self.loss > 0
            or self.latency_prob > 0
            or self.crash_fraction > 0
            or self.bisection_fraction > 0
        )

    def build_models(
        self, network_size: int, *, exclude: Sequence[int] = ()
    ) -> "list[FaultModel]":
        """The fault-model stack this spec describes (may be empty)."""
        from repro.net.faults import (
            Bisection,
            CrashSchedule,
            LatencySpike,
            MessageLoss,
            staggered_crash_windows,
        )

        models: list[FaultModel] = []
        if self.loss > 0:
            models.append(MessageLoss(self.loss))
        if self.latency_prob > 0:
            models.append(
                LatencySpike(self.latency_prob, self.latency_ms, self.latency_jitter_ms)
            )
        if self.crash_fraction > 0:
            windows = staggered_crash_windows(
                network_size, self.crash_fraction, exclude=set(exclude)
            )
            if windows:
                models.append(CrashSchedule(windows))
        if self.bisection_fraction > 0:
            left = range(int(round(self.bisection_fraction * network_size)))
            end = math.inf if self.bisection_end_ms is None else self.bisection_end_ms
            models.append(
                Bisection(left, start_ms=self.bisection_start_ms, end_ms=end)
            )
        return models

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        return cls(
            loss=float(d.get("loss", 0.0)),
            latency_prob=float(d.get("latency_prob", 0.0)),
            latency_ms=float(d.get("latency_ms", 0.0)),
            latency_jitter_ms=float(d.get("latency_jitter_ms", 0.0)),
            crash_fraction=float(d.get("crash_fraction", 0.0)),
            bisection_fraction=float(d.get("bisection_fraction", 0.0)),
            bisection_start_ms=float(d.get("bisection_start_ms", 0.0)),
            bisection_end_ms=(
                None if d.get("bisection_end_ms") is None else float(d["bisection_end_ms"])
            ),
        )


@dataclass(frozen=True)
class ChurnSpec:
    """Two-state Markov churn (see :class:`repro.net.churn.ChurnModel`)."""

    leave_prob: float = 0.0
    rejoin_prob: float = 0.5

    def __post_init__(self) -> None:
        _check_fraction("leave_prob", self.leave_prob)
        _check_fraction("rejoin_prob", self.rejoin_prob)

    @classmethod
    def none(cls) -> "ChurnSpec":
        return cls()

    @property
    def active(self) -> bool:
        return self.leave_prob > 0

    def build(self, *, protected: Sequence[int] = ()) -> "ChurnModel | None":
        if not self.active:
            return None
        from repro.net.churn import ChurnModel

        return ChurnModel(
            leave_prob=self.leave_prob,
            rejoin_prob=self.rejoin_prob,
            protected=set(protected),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ChurnSpec":
        return cls(
            leave_prob=float(d.get("leave_prob", 0.0)),
            rejoin_prob=float(d.get("rejoin_prob", 0.5)),
        )


@dataclass(frozen=True)
class TopologySpec:
    """Overlay shape, expressed as the config knobs that generate it."""

    kind: str = "power_law"
    avg_neighbors: float = 4.0

    _KINDS = ("power_law", "random", "small_world")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigError(
                f"unknown topology kind {self.kind!r} (known: {', '.join(self._KINDS)})"
            )
        if self.avg_neighbors <= 0:
            raise ConfigError(f"avg_neighbors must be > 0, got {self.avg_neighbors}")

    @classmethod
    def default(cls) -> "TopologySpec":
        return cls()

    def config_overrides(self) -> dict:
        return {"topology_kind": self.kind, "avg_neighbors": self.avg_neighbors}

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TopologySpec":
        return cls(
            kind=d.get("kind", "power_law"),
            avg_neighbors=float(d.get("avg_neighbors", 4.0)),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Transaction workload plus the system parameters it runs under.

    ``overrides`` holds extra :class:`~repro.core.config.HiRepConfig`
    fields (validated at config-build time), so a scenario can pin any
    protocol knob without the DSL growing a field per knob.
    """

    network_size: int = 120
    transactions: int = 40
    requestor: int | None = 0
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.network_size < 2:
            raise ConfigError(f"network_size must be >= 2, got {self.network_size}")
        if self.transactions < 1:
            raise ConfigError(f"transactions must be >= 1, got {self.transactions}")
        try:
            canonical_json(self.overrides)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"workload overrides are not JSON-encodable: {exc}") from exc

    def build_config(self, seed: int, topology: TopologySpec) -> "HiRepConfig":
        from repro.workloads.scenarios import default_config

        overrides = {**topology.config_overrides(), **self.overrides}
        # JSON round-trips turn tuples into lists; HiRepConfig fields like
        # good_rating are tuples — restore them so validation passes.
        overrides = {
            k: tuple(v) if isinstance(v, list) else v for k, v in overrides.items()
        }
        return default_config(network_size=self.network_size, seed=seed).with_(
            **overrides
        )

    def to_dict(self) -> dict:
        return {
            "network_size": self.network_size,
            "transactions": self.transactions,
            "requestor": self.requestor,
            "overrides": dict(self.overrides),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadSpec":
        requestor = d.get("requestor", 0)
        return cls(
            network_size=int(d.get("network_size", 120)),
            transactions=int(d.get("transactions", 40)),
            requestor=None if requestor is None else int(requestor),
            overrides=dict(d.get("overrides", {})),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One adversarial cell: attack x fault x churn x topology x workload."""

    name: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    fault: FaultSpec = field(default_factory=FaultSpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("a scenario needs a non-empty name")

    def is_clean(self) -> bool:
        """No adversarial pressure at all — the degradation reference cell."""
        return not (self.attack.active or self.fault.active or self.churn.active)

    def identity(self) -> dict:
        """The hashed portion of the spec (``name`` is display-only)."""
        d = self.to_dict()
        del d["name"]
        return d

    def hash(self) -> str:
        return spec_hash(self.identity())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "workload": self.workload.to_dict(),
            "attack": self.attack.to_dict(),
            "fault": self.fault.to_dict(),
            "churn": self.churn.to_dict(),
            "topology": self.topology.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        return cls(
            name=d["name"],
            workload=WorkloadSpec.from_dict(d.get("workload", {})),
            attack=AttackSpec.from_dict(d.get("attack", {})),
            fault=FaultSpec.from_dict(d.get("fault", {})),
            churn=ChurnSpec.from_dict(d.get("churn", {})),
            topology=TopologySpec.from_dict(d.get("topology", {})),
        )


@dataclass(frozen=True)
class Campaign:
    """A named sweep over scenarios x systems x seeds.

    ``compile()`` turns the cross-product into orchestrator job specs in a
    deterministic order (scenario-major, then system, then seed), which is
    also the order :mod:`repro.campaigns.report` consumes payloads in.
    """

    name: str
    scenarios: tuple[ScenarioSpec, ...]
    systems: tuple[str, ...] = ("hirep", "voting")
    seeds: tuple[int, ...] = (2006, 2007)
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "systems", tuple(self.systems))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.name:
            raise ConfigError("a campaign needs a non-empty name")
        if not self.scenarios:
            raise ConfigError("a campaign needs at least one scenario")
        if not self.systems:
            raise ConfigError("a campaign needs at least one system")
        if not self.seeds:
            raise ConfigError("a campaign needs at least one seed")
        names = [s.name for s in self.scenarios]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigError(f"duplicate scenario names: {', '.join(dupes)}")

    def cells(self) -> list[tuple[ScenarioSpec, str, int]]:
        """The cross-product, in compile order."""
        return [
            (scenario, system, seed)
            for scenario in self.scenarios
            for system in self.systems
            for seed in self.seeds
        ]

    def compile(self) -> list[JobSpec]:
        """One orchestrator job per campaign cell, in :meth:`cells` order.

        The scenario's display name is replaced by a fixed placeholder in
        the job kwargs (it rides on the label instead), so renaming a
        scenario — like relabelling a job — never changes the job key or
        invalidates its cached cell; the report layer reattaches names
        positionally.
        """
        return [
            JobSpec(
                module=CELL_MODULE,
                func=CELL_FUNC,
                kwargs={
                    "scenario": {**scenario.to_dict(), "name": "cell"},
                    "system": system,
                    "seed": seed,
                },
                label=f"{self.name}/{scenario.name}[{system},seed={seed}]",
            )
            for scenario, system, seed in self.cells()
        ]

    def identity(self) -> dict:
        return {
            "scenarios": [s.identity() for s in self.scenarios],
            "systems": list(self.systems),
            "seeds": list(self.seeds),
        }

    def hash(self) -> str:
        return spec_hash(self.identity())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "scenarios": [s.to_dict() for s in self.scenarios],
            "systems": list(self.systems),
            "seeds": list(self.seeds),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Campaign":
        return cls(
            name=d["name"],
            description=d.get("description", ""),
            scenarios=tuple(ScenarioSpec.from_dict(s) for s in d.get("scenarios", [])),
            systems=tuple(d.get("systems", ("hirep", "voting"))),
            seeds=tuple(d.get("seeds", (2006, 2007))),
        )
