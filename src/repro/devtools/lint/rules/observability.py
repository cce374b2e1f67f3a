"""OBS001/OBS002: report through the telemetry plane, time through it too.

A bare ``print()`` in the simulation/protocol/orchestration layers is
output nobody can capture, filter, or diff: it bypasses the tracer, the
span recorder, and the metric registry (:mod:`repro.obs`), interleaves
nondeterministically under ``--jobs N``, and corrupts machine-read stdout
(export pipelines, golden files).  Record an event on the plane, bump a
metric, or raise — don't print.

User-facing surfaces are exempt: CLI modules (``repro.obs.cli``, the
lint/experiment CLIs live outside the scoped packages anyway) and the
progress reporter (``repro.exec.progress``), whose entire job is writing
to a terminal.  A deliberate call elsewhere can carry
``# lint: allow[OBS001]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import FileContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, in_packages, register
from repro.devtools.lint.rules.determinism import table_reads

#: modules whose job *is* terminal output.
_EXEMPT = ("repro.exec.progress", "repro.obs.cli")


@register
class NoBarePrint(Rule):
    """OBS001: no ``print()`` in sim/net/core/exec/obs library code."""

    code = "OBS001"
    name = "library code must not print(); use telemetry (repro.obs)"
    packages = ("repro.sim", "repro.net", "repro.core", "repro.exec", "repro.obs")

    def applies_to(self, module: str | None) -> bool:
        return super().applies_to(module) and not in_packages(module, _EXEMPT)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.finding(
                    self,
                    node,
                    "print() in library code bypasses the telemetry plane "
                    "and corrupts machine-read stdout; record a trace event "
                    "or metric (repro.obs), or pragma a deliberate site with "
                    "`# lint: allow[OBS001]`",
                )


#: The two sanctioned homes for host-clock / allocation-tracing access.
_OBS002_EXEMPT = ("repro.obs.clock", "repro.obs.prof")

#: ``time.<attr>`` reads that belong behind :class:`repro.obs.WallClock`.
_RAW_TIMERS = {"time": {"perf_counter", "perf_counter_ns"}}


@register
class RawPerfInstrumentation(Rule):
    """OBS002: wall-timing and tracemalloc go through ``repro.obs``.

    Before the perf-observability plane, every benchmark suite and
    worker timed itself with bare ``time.perf_counter()`` and each
    invented its own shape for the numbers.  Timing now flows through
    :class:`repro.obs.WallClock` (one audited host-clock seam, zeroed
    origins, milliseconds everywhere) and allocation tracing through
    :class:`repro.obs.prof.Profiler` — so profiles, span joins, and
    :class:`repro.perf.PerfReport` rows all agree on where time comes
    from.  ``repro.obs.clock`` and ``repro.obs.prof`` are the sanctioned
    implementations; anywhere else, route through them or pragma a
    deliberate site with ``# lint: allow[OBS002]``.
    """

    code = "OBS002"
    name = "raw perf_counter/tracemalloc; use repro.obs.WallClock / repro.obs.prof"
    packages = None  # applies to everything linted, benchmarks/ scripts included

    def applies_to(self, module: str | None) -> bool:
        return not in_packages(module, _OBS002_EXEMPT)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Import)
                and any(alias.name == "tracemalloc" for alias in node.names)
            ) or (isinstance(node, ast.ImportFrom) and node.module == "tracemalloc"):
                yield ctx.finding(
                    self,
                    node,
                    "import tracemalloc outside repro.obs.prof; use "
                    "Profiler(memory=True) so watermarks land in "
                    "profile.json with everything else",
                )
        for node, dotted in table_reads(ctx.tree, _RAW_TIMERS):
            yield ctx.finding(
                self,
                node,
                f"{dotted} is a raw host-clock read; time through "
                "repro.obs.WallClock (or repro.obs.prof for profiles) so "
                "perf numbers share one seam",
            )
