"""SRV001: no blocking call in a ``repro.serve`` coroutine body.

The service plane runs every actor, the supervisor's restarts, and the
load generator on one asyncio event loop.  A single synchronous blocking
call — ``time.sleep``, a blocking socket constructor/connect, ``subprocess``,
disk I/O — stalls the whole fleet: no actor makes progress, wall-clock
latency spans inflate, and the quiescence drain can deadlock against the
very frame it is waiting for.  Await instead (``asyncio.sleep``,
``asyncio.open_connection``, executor offload).

The rule reads each ``async def`` body under ``repro.serve``.  Module
sinks are matched through the file's own imports (``from time import
sleep`` and ``import time as t`` included); method sinks by the called
name on any receiver.  An awaited call yields to the loop and is never a
sink.  A synchronous ``def`` is never a coroutine body: not the sync
facade that drives the loop with ``run_until_complete``, and not a
callback nested inside an ``async def``.  A sink behind a synchronous
helper is not followed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import FileContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, register
from repro.devtools.lint.rules.determinism import table_reads
from repro.devtools.lint.summaries import callee_name

#: The one blocking-sink table -> the async alternative.  A dotted key is
#: a module function, matched through the file's imports; a bare key is a
#: builtin or a method, matched by the called name (``open(...)``,
#: ``loop.run_until_complete(...)``, ``sock.recv(...)``).
_BLOCKING_SINKS: dict[str, str] = {
    "time.sleep": "await asyncio.sleep(...)",
    "socket.socket": "asyncio.open_connection / asyncio.start_server",
    "socket.create_connection": "asyncio.open_connection",
    "socket.create_server": "asyncio.start_server",
    "subprocess.run": "asyncio.create_subprocess_exec",
    "subprocess.call": "asyncio.create_subprocess_exec",
    "subprocess.check_call": "asyncio.create_subprocess_exec",
    "subprocess.check_output": "asyncio.create_subprocess_exec",
    "subprocess.Popen": "asyncio.create_subprocess_exec",
    "os.system": "asyncio.create_subprocess_exec",
    "open": "asyncio.to_thread(...) or pre-open outside the loop",
    "run_until_complete": "await the coroutine (the loop is already running here)",
    "recv": "await reader.read(n) on an asyncio stream",
    "recv_into": "await reader.read(n) on an asyncio stream",
    "recvfrom": "asyncio datagram transports",
    "sendall": "writer.write(...) + await writer.drain()",
    "read": "await reader.read(...)",
}

#: the dotted half of the table as :func:`table_reads` takes it
_MODULE_SINKS: dict[str, set[str]] = {
    module: {key.partition(".")[2] for key in _BLOCKING_SINKS if key.startswith(module + ".")}
    for module in sorted({key.partition(".")[0] for key in _BLOCKING_SINKS if "." in key})
}


def _coroutine_calls(tree: ast.AST) -> list[tuple[ast.Call, str]]:
    """Every non-awaited call in an ``async def`` body, with that coroutine's name."""
    awaited = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Await)}
    calls: list[tuple[ast.Call, str]] = []
    for coroutine in ast.walk(tree):
        if not isinstance(coroutine, ast.AsyncFunctionDef):
            continue
        todo: list[ast.AST] = list(coroutine.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # its own function; a nested coroutine is walked itself
            if isinstance(node, ast.Call) and id(node) not in awaited:
                calls.append((node, coroutine.name))
            todo.extend(ast.iter_child_nodes(node))
    return calls


@register
class NoBlockingCallsInCoroutines(Rule):
    """SRV001: coroutines in the service plane must never block the loop."""

    code = "SRV001"
    name = "no blocking call (sleep, sync sockets, subprocess, open) in serve coroutines"
    packages = ("repro.serve",)

    def _finding(self, ctx: FileContext, call: ast.Call, coroutine: str, sink: str) -> Finding:
        return ctx.finding(
            self,
            call,
            f"{sink} blocks the event loop in coroutine `{coroutine}`; every "
            f"actor stalls until it returns — use {_BLOCKING_SINKS[sink]}",
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        calls = _coroutine_calls(ctx.tree)
        if not calls:
            return
        # table_reads reports a module sink at the call (a bare imported
        # name) or at its callee (an attribute chain)
        at = {id(node): site for site in calls for node in (site[0], site[0].func)}
        for node, dotted in table_reads(ctx.tree, _MODULE_SINKS):
            if id(node) in at:
                yield self._finding(ctx, *at[id(node)], dotted)
        for call, coroutine in calls:
            name = callee_name(call.func)
            if name in _BLOCKING_SINKS:
                yield self._finding(ctx, call, coroutine, name)
