"""Summary extraction: import records, their scope and gating, relative imports."""

from __future__ import annotations

import textwrap

from repro.devtools.lint import FileContext
from repro.devtools.lint.summaries import ModuleSummary, extract_summary


def summarize(
    source: str, module: str = "repro.sim.mod", path: str = "src/fake.py"
) -> ModuleSummary:
    return extract_summary(
        FileContext.parse(textwrap.dedent(source), module=module, path=path)
    )


def test_import_records_scope_and_binding():
    s = summarize(
        """
        import json
        import numpy as np
        from pathlib import Path
        from repro.core.system import HiRepSystem as HRS

        def lazy():
            from repro.obs.clock import WallClock
            return WallClock
        """
    )
    by_binding = {r.binding: r for r in s.imports}
    assert by_binding["json"].name is None
    assert by_binding["np"].module == "numpy"
    assert by_binding["Path"].name == "Path"
    assert by_binding["HRS"].module == "repro.core.system"
    assert by_binding["HRS"].scope == "module"
    assert by_binding["WallClock"].scope == "local"


def test_type_checking_imports_are_marked():
    s = summarize(
        """
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.exec.scheduler import JobOutcome
        """
    )
    rec = next(r for r in s.imports if r.binding == "JobOutcome")
    assert rec.type_checking is True


def test_relative_imports_resolve_against_the_package():
    source = """
        from . import peer
        from .peer import Peer as P
        from ..core import system
        from ... import beyond
    """
    s = summarize(source, module="repro.net.mod")
    assert [(r.module, r.name, r.binding) for r in s.imports] == [
        ("repro.net", "peer", "peer"),
        ("repro.net.peer", "Peer", "P"),
        ("repro.core", "system", "system"),
    ]  # climbing above the top-level package binds nothing
    # in a package's __init__, `.` is the package itself
    init = summarize(
        "from .peer import Peer\n", module="repro.net", path="src/repro/net/__init__.py"
    )
    assert [(r.module, r.name) for r in init.imports] == [("repro.net.peer", "Peer")]
