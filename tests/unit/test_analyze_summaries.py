"""Summary extraction: imports, functions, classes, scheduler sinks."""

from __future__ import annotations

import textwrap

from repro.devtools.lint import FileContext
from repro.devtools.lint.summaries import MODULE_SCOPE, ModuleSummary, extract_summary


def summarize(source: str, module: str = "repro.sim.mod") -> ModuleSummary:
    return extract_summary(
        FileContext.parse(textwrap.dedent(source), module=module, path="src/fake.py")
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


def test_function_qualnames_and_async():
    s = summarize(
        """
        def top():
            def inner():
                pass

        async def aio():
            pass

        class Box:
            def method(self):
                pass
        """
    )
    assert "top" in s.functions
    assert "top.<locals>.inner" in s.functions
    assert s.functions["top.<locals>.inner"].nested
    assert s.functions["aio"].is_async
    assert s.functions["Box.method"].class_name == "Box"
    assert MODULE_SCOPE in s.functions


def test_call_sites_record_chain_and_awaited():
    s = summarize(
        """
        import time

        async def run():
            await helper()
            time.sleep(1)
        """
    )
    calls = {c.chain: c for c in s.functions["run"].calls}
    assert calls[("helper",)].awaited is True
    assert calls[("time", "sleep")].awaited is False


def test_module_level_calls_land_in_module_scope():
    s = summarize("import time\nSTART = time.time()\n")
    chains = [c.chain for c in s.functions[MODULE_SCOPE].calls]
    assert ("time", "time") in chains


def test_class_info_bases_methods_attr_types():
    s = summarize(
        """
        from repro.core.system import HiRepSystem

        class Live(HiRepSystem):
            def __init__(self):
                self.engine = WallEngine()

            def step(self):
                pass
        """
    )
    cls = s.classes["Live"]
    assert ("HiRepSystem",) in cls.bases
    assert set(cls.methods) == {"__init__", "step"}
    assert cls.attr_types["engine"] == ("WallEngine",)


def test_lambda_bindings_and_aliases():
    s = summarize(
        """
        import repro.exec.worker as worker_mod

        square = lambda x: x * x
        run = worker_mod.execute_spec
        """
    )
    assert "square" in s.lambda_bindings
    assert s.aliases["run"] == ("worker_mod", "execute_spec")


def test_callable_refs_direct_name_lambda_and_captured():
    s = summarize(
        """
        from functools import partial

        def go(pool, work):
            pool.submit(work)
            pool.submit(lambda: 1)
            pool.submit(partial(work, key=lambda x: x))
        """
    )
    kinds = sorted(r.kind for r in s.callable_refs)
    assert kinds == ["captured_lambda", "lambda", "name", "name"]
    named = [r for r in s.callable_refs if r.kind == "name"]
    assert all(r.chain == ("work",) for r in named)


def test_sweepplan_assemble_kwarg_is_a_sink():
    s = summarize("plan = SweepPlan(specs=[], assemble=lambda rs: rs)\n")
    assert [r.sink for r in s.callable_refs] == ["SweepPlan(assemble=...)"]
