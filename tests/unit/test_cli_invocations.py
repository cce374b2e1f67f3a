"""Drift guard: every documented CLI call names a tool, subcommand and id
that exist.

Collects each invocation in the CI workflow, the README, ``docs/*.md``
and the verify skill, and checks that

* a shell line whose first word is a ``hirep-<x>`` tool names a
  ``[project.scripts]`` entry;
* a ``hirep-obs`` / ``hirep-serve`` subcommand is one its parser knows;
* every id after ``hirep-experiments`` is one its ``--list`` prints —

so a removed script, subcommand, experiment or campaign cannot linger in
a doc or a CI step.
"""

from __future__ import annotations

import argparse
import importlib
import re
from pathlib import Path

import pytest

from repro.campaigns.catalogue import campaign_names
from repro.experiments.runner import EXPERIMENTS
from repro.experiments.runner import main as experiments_main

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
#: a shell line (``$ `` prompt optional) starting with a tool; the
#: ``hirep-array`` system name is not one
_TOOL_LINE = re.compile(r"^\s*(?:\$\s+)?(hirep-(?!array\b)[a-z]+)\b", re.M)
#: the ids after ``hirep-experiments`` on a shell line, in ``<(...)`` or
#: in backticks, up to the first flag
_EXPERIMENT_IDS = re.compile(
    r"(?:^\s*(?:\$\s+)?|[(`])hirep-experiments((?:[ \t]+[a-z0-9][\w-]*)*)", re.M
)


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


def _matches(pattern: re.Pattern) -> list[tuple[str, str]]:
    """(source, first group) for every match of ``pattern``."""
    return sorted(
        {
            (str(path.relative_to(REPO)), match)
            for path in SOURCES
            for match in pattern.findall(path.read_text())
        }
    )


INVOCATIONS = _invocations()
TOOL_LINES = _matches(_TOOL_LINE)


def test_invocations_are_found():
    tools = {tool for _, tool, _ in INVOCATIONS}
    assert tools == {"hirep-obs", "hirep-serve"}
    assert len(INVOCATIONS) >= 10


@pytest.mark.parametrize("source, tool, sub", INVOCATIONS)
def test_documented_invocation_parses(source, tool, sub):
    scripts = _scripts()
    assert tool in scripts, f"{source}: {tool} is not a [project.scripts] entry"
    assert sub in _subcommands(scripts[tool]), f"{source}: {tool} has no {sub!r}"


@pytest.mark.parametrize("source, tool", TOOL_LINES)
def test_shell_line_names_a_script(source, tool):
    assert tool in _scripts(), f"{source}: {tool} is not a [project.scripts] entry"


def test_experiment_ids_are_listed(capsys):
    assert experiments_main(["--list"]) == 0
    listed = {"all", *capsys.readouterr().out.split()}
    calls = _matches(_EXPERIMENT_IDS)
    assert any(ids.split() for _, ids in calls)
    for source, ids in calls:
        unknown = sorted(set(ids.split()) - listed)
        assert not unknown, f"{source}: hirep-experiments has no {unknown}"


def test_campaign_names_are_not_experiment_ids():
    assert not set(campaign_names()) & set(EXPERIMENTS)
