"""Self-lint: the shipped rules pass over the live tree.

This is the invariants' anchor in tier-1: if a change introduces a global
RNG or entropy read, a wall-clock read, an unsorted JSON export, a closure
handed to the scheduler, a blocking call in a serve coroutine,
an upward import or an unannotated public API, this test fails before CI
does.  There is no baseline to absorb it — fix it or pragma the site.
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.devtools.lint import all_rules
from repro.devtools.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_bundled_rule_set_is_complete():
    assert [r.code for r in all_rules()] == [
        "API001",
        "ARC001",
        "DET001",
        "DET002",
        "DET003",
        "EXC001",
        "LAY001",
        "OBS001",
        "OBS002",
        "SRV001",
    ]


def test_live_tree_is_clean():
    """Per-file and whole-program rules, one run — CI's exact invocation."""
    out = io.StringIO()
    code = main(
        ["src", "examples", "benchmarks", "--root", str(REPO_ROOT)], stream=out
    )
    assert code == 0, f"hirep-lint found violations:\n{out.getvalue()}"
