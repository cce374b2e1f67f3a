"""The linting engine: file walking, parsing, rule dispatch, pragmas.

One pass: every file is read and ``ast.parse``-d exactly once into a
:class:`FileContext`.  Per-file rules walk that tree; when a whole-program
rule is active the same trees are digested into module summaries and
assembled into the import/call graphs (:mod:`repro.devtools.lint.graphs`)
those rules run over.  Findings of both kinds are then dropped where an
inline ``# lint: allow[RULE]`` pragma sits on the reported line — the
only suppression there is.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.devtools.lint.findings import Finding, sort_findings
from repro.devtools.lint.graphs import Project, build_graphs
from repro.devtools.lint.registry import Rule, resolve_rules
from repro.devtools.lint.summaries import ModuleSummary, extract_summary

#: inline suppression: ``# lint: allow[DET002]`` or ``# lint: allow[DET002,API001]``
#: (``*`` allows every rule on that line).  Must sit on the physical line the
#: finding is reported at — for function-level rules that is the ``def`` line.
_PRAGMA_RE = re.compile(r"#\s*lint:\s*allow\[([A-Za-z0-9_*,\s]+)\]")


def parse_pragmas(lines: list[str]) -> dict[int, set[str]]:
    """Map 1-based line number -> set of allowed rule codes on that line."""
    pragmas: dict[int, set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            if codes:
                pragmas[lineno] = codes
    return pragmas


def module_name_for(path: Path) -> str | None:
    """Infer the dotted module name from a file path.

    Walks up from the file collecting package directories (those with an
    ``__init__.py``); a script outside any package gets its bare stem.
    """
    if path.suffix != ".py":
        return None
    parts: list[str] = []
    if path.stem != "__init__":
        parts.append(path.stem)
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        return None
    return ".".join(reversed(parts))


@dataclass
class FileContext:
    """One parsed file: everything a rule needs to inspect it."""

    path: str  # as reported in findings (repo-relative posix)
    module: str | None
    tree: ast.Module
    pragmas: dict[int, set[str]]

    @classmethod
    def parse(cls, source: str, *, path: str, module: str | None) -> "FileContext":
        """The one ``ast.parse`` per file; raises :class:`SyntaxError`."""
        return cls(
            path=path,
            module=module,
            tree=ast.parse(source, filename=path),
            pragmas=parse_pragmas(source.splitlines()),
        )

    def finding(self, rule: Rule, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule.code,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
        )


@dataclass
class LintResult:
    """Findings of one run plus files that could not be analyzed."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  # unparseable files etc.


def build_project(files: Iterable[FileContext]) -> tuple[Project, list[str]]:
    """Summarize every named module and assemble the whole-program graphs."""
    summaries: dict[str, ModuleSummary] = {}
    errors: list[str] = []
    for ctx in files:
        if ctx.module is None:
            continue
        if ctx.module in summaries:
            errors.append(
                f"{ctx.path}: duplicate module name {ctx.module} "
                f"(also {summaries[ctx.module].path}); keeping the first"
            )
            continue
        summaries[ctx.module] = extract_summary(ctx)
    return Project(summaries, *build_graphs(summaries)), errors


def lint_files(files: list[FileContext], rules: Iterable[Rule] | None = None) -> LintResult:
    """Run the active rules over already-parsed files."""
    active = list(rules) if rules is not None else resolve_rules()
    result = LintResult()
    raw: list[Finding] = []
    for ctx in files:
        for rule in active:
            if not rule.whole_program and rule.applies_to(ctx.module):
                raw.extend(rule.check(ctx))
    project_rules = [rule for rule in active if rule.whole_program]
    if project_rules:
        project, result.errors = build_project(files)
        for rule in project_rules:
            raw.extend(rule.check_project(project))
    pragmas = {ctx.path: ctx.pragmas for ctx in files}
    for finding in raw:
        allowed = pragmas[finding.path].get(finding.line, ())
        if finding.rule not in allowed and "*" not in allowed:
            result.findings.append(finding)
    result.findings = sort_findings(result.findings)
    return result


def lint_source(
    source: str,
    *,
    path: str = "<snippet>",
    module: str | None = None,
    rules: Iterable[Rule] | None = None,
) -> LintResult:
    """Lint one in-memory source blob (the unit-test entry point)."""
    try:
        ctx = FileContext.parse(source, path=path, module=module)
    except SyntaxError as exc:
        return LintResult(errors=[f"{path}: syntax error: {exc.msg} (line {exc.lineno})"])
    return lint_files([ctx], rules)


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for root in paths:
        if root.is_file():
            if root.suffix == ".py":
                out.add(root)
        elif root.is_dir():
            out.update(p for p in root.rglob("*.py"))
    return sorted(p for p in out if "__pycache__" not in p.as_posix())


def load_files(
    paths: Iterable[Path], repo_root: Path | None = None
) -> tuple[list[FileContext], list[str]]:
    """Read and parse every file under ``paths``; paths come out repo-relative."""
    root = (repo_root or Path.cwd()).resolve()
    files: list[FileContext] = []
    errors: list[str] = []
    for file_path in iter_python_files(paths):
        resolved = file_path.resolve()
        try:
            rel = resolved.relative_to(root).as_posix()
        except ValueError:
            rel = resolved.as_posix()
        try:
            source = resolved.read_text(encoding="utf-8")
            files.append(
                FileContext.parse(source, path=rel, module=module_name_for(resolved))
            )
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(f"{rel}: unreadable: {exc}")
        except SyntaxError as exc:
            errors.append(f"{rel}: syntax error: {exc.msg} (line {exc.lineno})")
    return files, errors


def lint_paths(
    paths: Iterable[Path],
    *,
    repo_root: Path | None = None,
    rules: Iterable[Rule] | None = None,
) -> LintResult:
    """Lint files and/or directory trees; paths in findings are repo-relative."""
    files, errors = load_files(paths, repo_root)
    result = lint_files(files, rules)
    result.errors = errors + result.errors
    return result
