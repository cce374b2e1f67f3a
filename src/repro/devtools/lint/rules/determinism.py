"""Determinism rules: seeded randomness, no wall clock, sorted JSON.

These encode the three properties every hiREP experiment leans on: results
are a pure function of the seed (DET001), simulated time is the only time
(DET002), and exported/cached JSON is byte-stable so content-addressed
cache keys and ``--jobs N == --jobs 1`` comparisons hold (DET003).  All
three apply to every ``repro.*`` module — there is no list of
"deterministic packages" to fall out of date; the audited escape hatches
(:mod:`repro.obs.clock`, the scheduler watchdog) carry inline pragmas.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import FileContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, register
from repro.devtools.lint.summaries import attr_chain

#: Constructors that seed from OS entropy when called without an argument:
#: the generator factory and numpy's bit generators.
_SEED_TAKING = {"default_rng", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}

#: ``np.random.<attr>`` access that does *not* touch the hidden global
#: stream — types used in annotations plus the seeded constructors.
_NP_RANDOM_OK = {"Generator", "BitGenerator", "SeedSequence"} | _SEED_TAKING

#: modules that are nothing but hidden global state / kernel entropy:
#: importing them at all is the finding.
_ENTROPY_MODULES = {
    "random": "stdlib `random` has hidden global state",
    "secrets": "`secrets` reads kernel entropy",
}

#: module × function entropy reads in otherwise-innocent modules.
_ENTROPY_ATTRS = {"os": {"urandom"}, "uuid": {"uuid1", "uuid4"}}

_SEEDED = "draw from an injected np.random.Generator (see repro.sim.rng)"


def table_reads(
    tree: ast.AST, table: dict[str, set[str]]
) -> Iterator[tuple[ast.AST, str]]:
    """Every read of a ``module -> attrs`` table entry: ``(node, "module.attr")``.

    Three shapes: the ``from module import attr`` statement itself, a call
    of the name it bound, and an attribute chain ending in ``module.attr``
    (``import module as alias`` included).
    """
    modules = {module: module for module in table}  # local name -> module
    imported: dict[str, str] = {}  # local name -> "module.attr"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in table:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in table:
            for alias in node.names:
                if alias.name in table[node.module]:
                    dotted = f"{node.module}.{alias.name}"
                    imported[alias.asname or alias.name] = dotted
                    yield node, dotted
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = attr_chain(node)
            module = modules.get(chain[-2]) if len(chain) >= 2 else None
            if module is not None and chain[-1] in table[module]:
                yield node, f"{module}.{chain[-1]}"
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in imported:
                yield node, imported[node.func.id]


@register
class NoGlobalRandomness(Rule):
    """DET001: all randomness must flow through an injected, seeded Generator.

    Covers the stdlib ``random`` module, numpy's hidden global stream,
    unseeded ``default_rng()`` / ``PCG64()`` and the kernel-entropy reads
    (``secrets``, ``os.urandom``, ``uuid.uuid1``/``uuid4``) that no seed can
    replay.
    """

    code = "DET001"
    name = "no stdlib random / global numpy RNG / unseeded default_rng / entropy"
    packages = ("repro",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, dotted in table_reads(ctx.tree, _ENTROPY_ATTRS):
            yield ctx.finding(
                self, node, f"{dotted} reads entropy no seed can replay; {_SEEDED}"
            )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    why = _ENTROPY_MODULES.get(alias.name.split(".")[0])
                    if why is not None:
                        yield ctx.finding(self, node, f"{why}; {_SEEDED}")
            elif isinstance(node, ast.ImportFrom):
                if node.module in _ENTROPY_MODULES:
                    yield ctx.finding(
                        self, node, f"{_ENTROPY_MODULES[node.module]}; {_SEEDED}"
                    )
                elif node.module in ("numpy.random", "np.random"):
                    bad = [a.name for a in node.names if a.name not in _NP_RANDOM_OK]
                    if bad:
                        yield ctx.finding(
                            self,
                            node,
                            f"numpy.random.{bad[0]} uses the hidden global "
                            "stream; thread a seeded Generator instead",
                        )
            elif isinstance(node, ast.Attribute):
                chain = attr_chain(node)
                if (
                    len(chain) == 3
                    and chain[0] in ("np", "numpy")
                    and chain[1] == "random"
                    and chain[2] not in _NP_RANDOM_OK
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"{'.'.join(chain)} mutates/reads the hidden global "
                        "RNG; thread a seeded Generator instead",
                    )
            elif isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                takes_seed = bool(chain) and chain[-1] in _SEED_TAKING and (
                    len(chain) == 1 or chain[:-1] in (("np", "random"), ("numpy", "random"))
                )
                if takes_seed and not node.args and not node.keywords:
                    yield ctx.finding(
                        self,
                        node,
                        f"unseeded {chain[-1]}() is nondeterministic; pass an "
                        "explicit seed (or accept an injected Generator)",
                    )


#: modules × attributes that read the wall clock.
_CLOCK_ATTRS = {
    "time": {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    },
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}


@register
class NoWallClock(Rule):
    """DET002: nothing under ``repro`` reads the wall clock.

    Simulated time lives on :class:`repro.sim.engine.SimEngine`; anything
    else makes a run depend on host load.  Telemetry goes through
    :class:`repro.obs.clock.WallClock` — the one sanctioned host-clock
    seam, for the live service plane too; the few other legitimate sites
    (manifest timestamps, the scheduler watchdog) are marked with
    ``# lint: allow[DET002]``.
    """

    code = "DET002"
    name = "no wall-clock reads outside repro.obs.clock.WallClock"
    packages = ("repro",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, dotted in table_reads(ctx.tree, _CLOCK_ATTRS):
            yield ctx.finding(
                self,
                node,
                f"{dotted} reads the wall clock; use the simulation clock "
                "(repro.sim.engine.SimEngine.now), time through repro.obs.clock.WallClock, "
                "or pragma a telemetry site with `# lint: allow[DET002]`",
            )


@register
class SortedJSONExports(Rule):
    """DET003: every json.dump/json.dumps must pass sort_keys=True.

    Export and cache files are compared byte-for-byte (``--jobs N`` vs
    ``--jobs 1``, cache replay in CI); Python dict order is insertion order,
    so any unsorted dump makes byte equality depend on code paths.
    """

    code = "DET003"
    name = "json.dump(s) must sort keys on export/cache paths"
    packages = ("repro",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain not in (("json", "dump"), ("json", "dumps")):
                continue
            sort_kw = None
            has_star_kwargs = any(kw.arg is None for kw in node.keywords)
            for kw in node.keywords:
                if kw.arg == "sort_keys":
                    sort_kw = kw.value
            if sort_kw is None:
                if has_star_kwargs:
                    continue  # can't see inside **kwargs; give the benefit of the doubt
                yield ctx.finding(
                    self,
                    node,
                    f"{'.'.join(chain)}(...) without sort_keys=True is not "
                    "byte-deterministic; exports and cache entries must be",
                )
            elif isinstance(sort_kw, ast.Constant) and sort_kw.value is not True:
                yield ctx.finding(
                    self,
                    node,
                    f"{'.'.join(chain)}(..., sort_keys={sort_kw.value!r}) "
                    "disables key sorting; exports must be byte-deterministic",
                )
