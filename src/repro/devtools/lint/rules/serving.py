"""SRV001: no blocking call reachable from a ``repro.serve`` coroutine.

The service plane runs every actor, the supervisor monitor, and the load
generator on one asyncio event loop.  A single synchronous blocking call
— ``time.sleep``, a blocking socket constructor/connect, ``subprocess``,
disk I/O — stalls the whole fleet: no actor makes progress, wall-clock
latency spans inflate, and the quiescence drain can deadlock against the
very frame it is waiting for.  Await instead (``asyncio.sleep``,
``asyncio.open_connection``, executor offload).

The rule walks the call graph from every coroutine defined under
``repro.serve``: a sink written directly in the coroutine body is the
depth-0 case, a sink behind synchronous helpers (in any package) is
reported with the call path that reaches it.  An awaited call yields to
the loop and is never a sink; a synchronous ``def`` nested inside an
``async def`` (a callback handed to the loop) is its own function and is
only followed if the coroutine actually calls it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.graphs import ExternalCall, Project, func_key
from repro.devtools.lint.reach import entry_label, reachable_paths
from repro.devtools.lint.registry import Rule, in_packages, register


class _Sink(NamedTuple):
    fix: str  # the async alternative
    direct_only: bool = False  # only counts when written in the coroutine itself


#: The one blocking-sink table, keyed by dotted-name suffix.  Dotted names
#: match import-normalized external calls; bare method names match calls
#: on receivers the call graph cannot type (``loop.run_until_complete``,
#: ``sock.recv``).  A non-awaited ``.read()`` is only suspicious next to
#: the asyncio streams a coroutine holds, so it is a sink at depth 0 and
#: noise anywhere deeper.
_BLOCKING_SINKS: dict[str, _Sink] = {
    "time.sleep": _Sink("await asyncio.sleep(...)"),
    "socket.socket": _Sink("asyncio.open_connection / asyncio.start_server"),
    "socket.create_connection": _Sink("asyncio.open_connection"),
    "socket.create_server": _Sink("asyncio.start_server"),
    "subprocess.run": _Sink("asyncio.create_subprocess_exec"),
    "subprocess.call": _Sink("asyncio.create_subprocess_exec"),
    "subprocess.check_call": _Sink("asyncio.create_subprocess_exec"),
    "subprocess.check_output": _Sink("asyncio.create_subprocess_exec"),
    "subprocess.Popen": _Sink("asyncio.create_subprocess_exec"),
    "os.system": _Sink("asyncio.create_subprocess_exec"),
    "open": _Sink("asyncio.to_thread(...) or pre-open outside the loop"),
    "run_until_complete": _Sink("await the coroutine (the loop is already running here)"),
    "recv": _Sink("await reader.read(n) on an asyncio stream"),
    "recv_into": _Sink("await reader.read(n) on an asyncio stream"),
    "recvfrom": _Sink("asyncio datagram transports"),
    "sendall": _Sink("writer.write(...) + await writer.drain()"),
    "read": _Sink("await reader.read(...)", direct_only=True),
}


def _blocking_fix(call: ExternalCall, depth: int) -> str | None:
    """The async alternative when ``call`` blocks the loop, else None."""
    if call.site.awaited:
        return None  # an awaited call yields; it does not block the loop
    for suffix, sink in _BLOCKING_SINKS.items():
        if call.dotted == suffix or call.dotted.endswith("." + suffix):
            return None if sink.direct_only and depth else sink.fix
    return None


@register
class NoBlockingCallsInCoroutines(Rule):
    """SRV001: coroutines in the service plane must never block the loop."""

    code = "SRV001"
    name = "no blocking call (sleep, sync sockets, subprocess, open) reachable from serve coroutines"
    whole_program = True

    def check_project(self, project: Project) -> Iterator[Finding]:
        entries = [
            func_key(module, qualname)
            for module, summary in project.summaries.items()
            if in_packages(module, ("repro.serve",))
            for qualname, fn in summary.functions.items()
            if fn.is_async
        ]
        paths = reachable_paths(
            project.index,
            project.calls,
            entries,
            lambda call, depth: _blocking_fix(call, depth) is not None,
        )
        for path in paths:
            sink = path.sink
            fix = _blocking_fix(sink, len(path.hops) - 1)
            yield project.finding(
                self,
                sink.caller.partition("::")[0],
                sink.site.lineno,
                sink.site.col,
                f"{sink.dotted} blocks the event loop and is reached from "
                f"coroutine `{entry_label(path.entry)}`; every actor stalls "
                f"until it returns — use {fix}; call path: {path.render()}",
            )
