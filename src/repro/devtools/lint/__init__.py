"""hirep-lint: static analysis for hiREP's reproducibility invariants.

Generic linters can't see that this codebase's correctness rests on seeded
``np.random.Generator`` injection, simulated time, byte-stable JSON exports,
picklable scheduler callables, a non-blocking service loop and a layered
import DAG.  This package encodes those invariants as pluggable rules —
per-file AST rules and one whole-program rule over the import graph, in
one registry, behind one CLI (``repro.devtools.lint.cli``) — with inline
pragmas as the only suppression.  See ``docs/static-analysis.md``.
"""

from repro.devtools.lint.engine import (
    FileContext,
    LintResult,
    lint_paths,
    lint_source,
    module_name_for,
    parse_pragmas,
)
from repro.devtools.lint.findings import Finding, sort_findings
from repro.devtools.lint.registry import Rule, all_rules, register, resolve_rules

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "parse_pragmas",
    "register",
    "resolve_rules",
    "sort_findings",
]
