"""Construction layer: the name-keyed registry of reputation systems.

Every experiment, sweep plan, and example obtains systems through
:func:`build_system` instead of direct constructor calls (enforced by the
hirep-lint rule ARC001), which makes the system *kind* a first-class,
serializable dimension: ``repro.exec`` job specs carry ``system="voting"``
like any other kwarg, so ``baseline_comparison`` fans out one cacheable
job per (system, cell).

The bundled systems are one ``name → (module, class, summary)`` table,
imported lazily — the target module is loaded only when its name is first
built — so importing this module stays cheap and free of circular imports.

Adding a backend (full recipe in ``docs/architecture.md``)::

    from repro.core.registry import register_system

    @register_system("mytrust", summary="my aggregation scheme")
    def _build_mytrust(config, **opts):
        from mypackage.mytrust import MyTrustSystem
        return MyTrustSystem(config, **opts)
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError
from repro.obs.capture import attach_current

if TYPE_CHECKING:
    from repro.core.config import HiRepConfig
    from repro.core.interface import ReputationSystem

__all__ = [
    "DEFAULT_REGISTRY",
    "SystemRegistry",
    "build_system",
    "register_system",
    "system_names",
]

#: (config, **opts) -> a ReputationSystem implementation.
SystemBuilder = Callable[..., "ReputationSystem"]


class SystemRegistry:
    """Name → builder registry for reputation systems."""

    def __init__(self) -> None:
        self._builders: dict[str, SystemBuilder] = {}
        self._summaries: dict[str, str] = {}

    def register(
        self, name: str, builder: SystemBuilder, *, summary: str = ""
    ) -> None:
        if name in self._builders:
            raise ConfigError(f"system {name!r} already registered")
        self._builders[name] = builder
        self._summaries[name] = summary

    def names(self) -> list[str]:
        """Registered system names, in registration order."""
        return list(self._builders)

    def summary(self, name: str) -> str:
        self._require(name)
        return self._summaries[name]

    def build(
        self,
        name: str,
        config: "HiRepConfig | None" = None,
        **opts: object,
    ) -> "ReputationSystem":
        """Construct the system registered as ``name``.

        ``config`` and any keyword options are passed through to the
        builder (e.g. ``build_system("hirep", cfg, churn=model)``).

        When a telemetry capture window is open (see
        :func:`repro.obs.capture.capture`), the built system is attached
        to the active plane before being returned; otherwise this costs
        one global ``is None`` check.
        """
        self._require(name)
        system = self._builders[name](config, **opts)
        attach_current(system)
        return system

    def _require(self, name: str) -> None:
        if name not in self._builders:
            known = ", ".join(self.names())
            raise ConfigError(f"unknown system {name!r} (known: {known})")


#: The process-wide registry :func:`build_system` consults.
DEFAULT_REGISTRY = SystemRegistry()


def register_system(
    name: str, *, summary: str = "", registry: SystemRegistry | None = None
) -> Callable[[SystemBuilder], SystemBuilder]:
    """Decorator: register ``name`` in ``registry`` (default: process-wide)."""

    def deco(builder: SystemBuilder) -> SystemBuilder:
        (registry or DEFAULT_REGISTRY).register(name, builder, summary=summary)
        return builder

    return deco


def build_system(
    name: str, config: "HiRepConfig | None" = None, **opts: object
) -> "ReputationSystem":
    """Build a registered reputation system by name (the one front door)."""
    return DEFAULT_REGISTRY.build(name, config, **opts)


def system_names() -> list[str]:
    """Every name :func:`build_system` accepts."""
    return DEFAULT_REGISTRY.names()


# ---------------------------------------------------------------------------
# Bundled systems: name -> (module, class, summary).  The module is imported
# when the name is first built, so constructing the registry never drags in
# the full protocol stack (and cannot go circular).
# ---------------------------------------------------------------------------

_BUNDLED: dict[str, tuple[str, str, str]] = {
    "hirep": (
        "repro.core.system",
        "HiRepSystem",
        "hiREP: hierarchical reputation agents (the paper)",
    ),
    "hirep-array": (
        "repro.vector.system",
        "ArrayHiRepSystem",
        "hiREP on the struct-of-arrays kernel (repro.vector), for 100k+ peers",
    ),
    "voting": (
        "repro.baselines.voting",
        "PureVotingSystem",
        "pure flooding poll, votes weighted equally (§5.2)",
    ),
    "credibility": (
        "repro.baselines.credibility",
        "CredibilityVotingSystem",
        "flooding poll with per-voter credibility EWMA (P2PREP)",
    ),
    "trustme": (
        "repro.baselines.trustme",
        "TrustMeSystem",
        "broadcast queries to random trust-holding agents (TrustMe)",
    ),
    "local": (
        "repro.baselines.local",
        "LocalReputationSystem",
        "first-hand (plus friend-set) history only, zero messages",
    ),
    "eigentrust": (
        "repro.baselines.eigentrust",
        "EigenTrustSystem",
        "global trust by power iteration over a Chord DHT",
    ),
    "gossip": (
        "repro.baselines.gossip",
        "GossipSystem",
        "randomized gossip poll, votes discounted by relay distance",
    ),
    "serve": (
        "repro.serve.system",
        "ServeSystem",
        "hiREP as a live service: asyncio actors over real transports",
    ),
}


def _lazy_builder(module: str, cls: str) -> SystemBuilder:
    def build(config: "HiRepConfig | None", **opts: object) -> "ReputationSystem":
        return getattr(import_module(module), cls)(config, **opts)

    return build


for _name, (_module, _cls, _summary) in _BUNDLED.items():
    DEFAULT_REGISTRY.register(_name, _lazy_builder(_module, _cls), summary=_summary)
