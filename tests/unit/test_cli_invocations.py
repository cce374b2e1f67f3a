"""Drift guard: every documented ``hirep-obs`` / ``hirep-serve`` call parses.

Collects each invocation in the CI workflow, the README, ``docs/*.md``
and the verify skill, and checks that the tool is a ``[project.scripts]``
entry and that its parser knows the subcommand — so a removed or renamed
subcommand cannot linger in a doc or a CI step.
"""

from __future__ import annotations

import argparse
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

SOURCES = [
    REPO / ".github" / "workflows" / "ci.yml",
    REPO / "README.md",
    *sorted((REPO / "docs").glob("*.md")),
    REPO / ".claude" / "skills" / "verify" / "SKILL.md",
]

#: ``hirep-obs summarize`` on a line, ``hirep-obs summarize/timeline`` in
#: prose, and ``["hirep-obs", "flame", ...]`` in a CI python step.
_SHELL = re.compile(r"\b(hirep-(?:obs|serve))[ \t]+([a-z][a-z/-]*)")
_ARGV = re.compile(r"\"(hirep-(?:obs|serve))\",\s*\"([a-z][a-z-]*)\"")


def _scripts() -> dict[str, str]:
    """``[project.scripts]`` of pyproject.toml (no tomllib on 3.10)."""
    text = (REPO / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return dict(re.findall(r'^([\w-]+)\s*=\s*"([\w.:]+)"', section, re.M))


def _invocations() -> list[tuple[str, str, str]]:
    """(source, tool, subcommand) for every invocation found."""
    found = []
    for path in SOURCES:
        text = path.read_text()
        for pattern in (_SHELL, _ARGV):
            for tool, subs in pattern.findall(text):
                for sub in subs.split("/"):
                    found.append((str(path.relative_to(REPO)), tool, sub))
    return sorted(set(found))


def _subcommands(target: str) -> set[str]:
    module = importlib.import_module(target.split(":")[0])
    parser = module.build_parser()
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return set(action.choices)


INVOCATIONS = _invocations()


def test_invocations_are_found():
    tools = {tool for _, tool, _ in INVOCATIONS}
    assert tools == {"hirep-obs", "hirep-serve"}
    assert len(INVOCATIONS) >= 10


@pytest.mark.parametrize("source, tool, sub", INVOCATIONS)
def test_documented_invocation_parses(source, tool, sub):
    scripts = _scripts()
    assert tool in scripts, f"{source}: {tool} is not a [project.scripts] entry"
    assert sub in _subcommands(scripts[tool]), f"{source}: {tool} has no {sub!r}"
