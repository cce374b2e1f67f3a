"""Dispatch layer: typed routing of onion-delivered protocol messages.

The pre-kernel ``HiRepSystem._make_endpoint`` buried message routing in a
closure with an isinstance-chain; this module makes the routing table a
first-class object.  A :class:`ProtocolDispatcher` maps (node role,
message type) → handler:

* **roles** are named predicates over node indices (``"peer"`` — every
  node; ``"agent"`` — nodes serving as reputation agents), so a handler
  registered for a role simply never sees messages at nodes outside it —
  exactly the old behaviour of ``agents.get(ip) is None: drop``;
* **handlers** are ``(ip, message, sent_at) -> None`` callables;
* an optional :attr:`~ProtocolDispatcher.tap` observes every dispatch —
  handled or dropped — without touching protocol code.

``dispatcher.endpoint(ip)`` adapts a node's dispatch entry to the
``(message, sent_at)`` endpoint signature the onion router expects.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ConfigError

__all__ = ["ProtocolDispatcher"]

#: A protocol-message handler at a node: (ip, message, sent_at) -> None.
Handler = Callable[[int, Any, float], None]

#: A passive tap on every dispatch: (ip, message, sent_at, role) -> None,
#: ``role`` being the role whose handler ran (None = no handler: dropped).
Tap = Callable[[int, Any, float, str | None], None]


class ProtocolDispatcher:
    """Message-type → handler registry, scoped per node role."""

    def __init__(self) -> None:
        #: The one observer slot (the telemetry plane sets it on attach).
        self.tap: Tap | None = None
        #: role name -> membership predicate over node indices.
        self._roles: dict[str, Callable[[int], bool]] = {}
        #: role name -> message type -> handler (insertion-ordered).
        self._handlers: dict[str, dict[type, Handler]] = {}

    def define_role(self, role: str, member: Callable[[int], bool]) -> None:
        """Declare ``role`` with its node-membership predicate."""
        if role in self._roles:
            raise ConfigError(f"role {role!r} already defined")
        self._roles[role] = member
        self._handlers[role] = {}

    def register(self, role: str, message_type: type, handler: Handler) -> None:
        """Route ``message_type`` at nodes holding ``role`` to ``handler``."""
        if role not in self._roles:
            raise ConfigError(f"unknown role {role!r}; define_role first")
        table = self._handlers[role]
        if message_type in table:
            raise ConfigError(
                f"{message_type.__name__} already routed for role {role!r}"
            )
        table[message_type] = handler

    def routes(self) -> list[tuple[str, type]]:
        """Every (role, message type) pair with a handler, in order."""
        return [
            (role, message_type)
            for role, table in self._handlers.items()
            for message_type in table
        ]

    def dispatch(self, ip: int, message: Any, sent_at: float) -> bool:
        """Route one delivered message; returns True when a handler ran.

        Roles are consulted in definition order; within a role, the
        message's MRO is walked so a handler registered for a base class
        also receives subclasses.  Unroutable messages are dropped (and
        tapped), mirroring a deployed node ignoring unknown traffic.
        """
        for role, member in self._roles.items():
            if not member(ip):
                continue
            table = self._handlers[role]
            for klass in type(message).__mro__:
                handler = table.get(klass)
                if handler is not None:
                    if self.tap is not None:
                        self.tap(ip, message, sent_at, role)
                    handler(ip, message, sent_at)
                    return True
        if self.tap is not None:
            self.tap(ip, message, sent_at, None)
        return False

    def endpoint(self, ip: int) -> Callable[[Any, float], None]:
        """The onion-router endpoint for node ``ip``."""

        def endpoint(message: Any, sent_at: float) -> None:
            self.dispatch(ip, message, sent_at)

        return endpoint
