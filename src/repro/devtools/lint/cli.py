"""The ``hirep-lint`` command-line interface.

* ``hirep-lint [paths...]`` — parse each file once, run every per-file
  and whole-program rule, report.  Exit codes: 0 clean, 1 findings or
  unreadable files, 2 bad invocation.  A finding is sanctioned only by an
  inline ``# lint: allow[RULE]`` pragma on its line.
* ``hirep-lint graph [paths...]`` — dump the import graph the
  whole-program rule runs over as deterministic JSON (sorted keys,
  sorted edges; byte-identical under any ``PYTHONHASHSEED``), plus a
  ``statements`` table: ``ast.stmt`` nodes per top-level package, the
  size counter the simplicity PRs and the ROADMAP quote.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Sequence, TextIO

from repro.devtools.lint.engine import build_project, lint_paths, load_files
from repro.devtools.lint.registry import all_rules, resolve_rules
from repro.devtools.lint.reporters import REPORTERS


def build_parser(graph: bool = False) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hirep-lint graph" if graph else "hirep-lint",
        description=(
            "dump the import graph as deterministic JSON"
            if graph
            else "static analysis for hiREP's determinism, scheduler, serving "
            "and layering invariants (`hirep-lint graph` dumps the import graph)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--root", default=".", help="repo root that relative paths resolve against"
    )
    if not graph:
        parser.add_argument(
            "--format", choices=sorted(REPORTERS), default="text", help="output format"
        )
        parser.add_argument("--select", action="append", help="only run these rule codes")
        parser.add_argument(
            "--list-rules", action="store_true", help="print registered rules and exit"
        )
    return parser


def _list_rules(stream: TextIO) -> None:
    for rule in all_rules():
        if rule.whole_program:
            scope = "whole program"
        else:
            scope = ", ".join(rule.packages) if rule.packages else "all modules"
        print(f"{rule.code}  {rule.name}  ({scope})", file=stream)


def _dump_graph(targets: list[Path], root: Path, stream: TextIO) -> int:
    files, errors = load_files(targets, root)
    project, duplicates = build_project(files)
    errors += duplicates
    statements: dict[str, int] = {}
    for ctx in files:
        package = ".".join((ctx.module or ctx.path).split(".")[:2])
        statements[package] = statements.get(package, 0) + sum(
            isinstance(node, ast.stmt) for node in ast.walk(ctx.tree)
        )
    payload = {
        "modules": sorted(project.summaries),
        "imports": project.imports.to_dict(),
        "statements": statements,
        "errors": sorted(errors),
    }
    print(json.dumps(payload, indent=2, sort_keys=True), file=stream)
    return 1 if errors else 0


def main(argv: Sequence[str] | None = None, stream: TextIO | None = None) -> int:
    out = stream if stream is not None else sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    graph = argv[:1] == ["graph"]
    args = build_parser(graph).parse_args(argv[1:] if graph else argv)

    # relative paths are relative to --root, so `hirep-lint src --root X`
    # behaves the same from any working directory
    root = Path(args.root).resolve()
    targets = [root / path for path in args.paths]
    if graph:
        return _dump_graph(targets, root, out)
    if args.list_rules:
        _list_rules(out)
        return 0
    try:
        rules = resolve_rules(args.select)
    except KeyError as exc:
        print(f"hirep-lint: {exc.args[0]}", file=sys.stderr)
        return 2
    result = lint_paths(targets, repo_root=root, rules=rules)
    REPORTERS[args.format](result.findings, result.errors, out)
    return 1 if (result.findings or result.errors) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
