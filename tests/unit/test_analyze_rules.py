"""The whole-program rule (LAY001) against multi-module fixture trees, plus
cross-module fixtures for the per-file DET, SRV001 and EXC001 rules: a
helper in one module never makes another module's finding."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import lint_paths, resolve_rules


def analyze(tmp_path: Path, files: dict[str, str], select: list[str] | None = None):
    """Materialize ``module -> source`` as a package tree and lint it."""
    src = tmp_path / "src"
    for module, source in files.items():
        path = src.joinpath(*module.split(".")).with_suffix(".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        parent = path.parent
        while parent != src:
            (parent / "__init__.py").touch()
            parent = parent.parent
        path.write_text(textwrap.dedent(source))
    result = lint_paths([src], repo_root=tmp_path, rules=resolve_rules(select))
    assert not result.errors, result.errors
    return result.findings


def codes(findings) -> list[str]:
    return [f.rule for f in findings]


# ------------------------------------------------- DET001/DET002 across modules


CLOCK_HELPER = {
    "repro.workloads.util": "import time\n\ndef stamp():\n    return time.time()\n",
    "repro.sim.run": (
        "from repro.workloads.util import stamp\n\ndef go():\n    return stamp()\n"
    ),
}


@pytest.mark.parametrize(
    "helper, caller",
    [
        # a helper package the old DET002 scope list never named
        pytest.param("repro.workloads.util", "repro.sim.run", id="unlisted-pkg"),
        # inside the old scope (was carved out of the reachability rule)
        pytest.param("repro.obs.clockish", "repro.sim.run", id="obs"),
        # reached only from the live plane (was not an entry package)
        pytest.param("repro.workloads.util", "repro.serve.run", id="from-serve"),
    ],
)
def test_det002_flags_clock_helper_wherever_it_lives(tmp_path, helper, caller):
    findings = analyze(
        tmp_path,
        {
            helper: "import time\n\ndef stamp():\n    return time.time()\n",
            caller: f"from {helper} import stamp\n\ndef go():\n    return stamp()\n",
        },
        ["DET002"],
    )
    assert codes(findings) == ["DET002"]
    f = findings[0]
    assert f.path == "src/" + helper.replace(".", "/") + ".py"
    assert f.line == 4 and "time.time" in f.message  # anchored at the read


def test_det001_flags_entropy_sources(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.workloads.util": (
                "import os\nimport uuid\n\n"
                "def salt():\n    return os.urandom(8)\n\n"
                "def tag():\n    return uuid.uuid4()\n"
            ),
            "repro.core.run": (
                "from repro.workloads.util import salt, tag\n\n"
                "def go():\n    return salt(), tag()\n"
            ),
        },
        ["DET001"],
    )
    assert codes(findings) == ["DET001", "DET001"]
    assert all(f.path.endswith("workloads/util.py") for f in findings)


def test_det002_pragma_at_the_read_sanctions_every_caller(tmp_path):
    files = dict(CLOCK_HELPER)
    files["repro.workloads.util"] = (
        "import time\n\ndef stamp():\n"
        "    return time.time()  # lint: allow[DET002]\n"
    )
    assert analyze(tmp_path, files, ["DET002"]) == []


# ---------------------------------------------------------------- SRV001


BLOCKING = {
    "repro.serve.actor": "import time\n\nasync def run():\n    time.sleep(1)\n",
}


def test_srv001_direct_sink_is_the_depth_zero_path(tmp_path):
    findings = analyze(tmp_path, BLOCKING, ["SRV001"])
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("SRV001", "src/repro/serve/actor.py", 4)
    ]
    assert "time.sleep blocks the event loop in coroutine `run`" in findings[0].message
    assert "await asyncio.sleep(...)" in findings[0].message


def test_srv001_non_awaited_read_only_counts_inside_the_coroutine(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.core.util": "def slurp(fh):\n    return fh.read()\n",
            "repro.serve.actor": (
                "from repro.core.util import slurp\n\n"
                "async def run(reader, fh):\n    slurp(fh)\n    return reader.read(8)\n"
            ),
        },
        ["SRV001"],
    )
    assert [(f.rule, f.path) for f in findings] == [
        ("SRV001", "src/repro/serve/actor.py")
    ]


# ---------------------------------------------------------------- EXC001


def test_exc001_imported_module_level_def_is_clean(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.workloads.fns": "def work():\n    return 1\n",
            "repro.exec.runner": (
                "from repro.workloads.fns import work\n\n"
                "def go(pool):\n    pool.submit(work)\n"
            ),
        },
        ["EXC001"],
    )
    assert findings == []


# ---------------------------------------------------------------- LAY001


def test_lay001_flags_upward_module_level_import(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.net.mod": "from repro.core.system import boot\n",
            "repro.core.system": "def boot():\n    pass\n",
        },
        ["LAY001"],
    )
    assert codes(findings) == ["LAY001"]
    assert "upward" in findings[0].message


def test_lay001_resolves_relative_imports(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.net.mod": (
                "from . import peer\n"  # same package: clean
                "from ..core.system import boot\n"  # upward
            ),
            "repro.net.peer": "VALUE = 1\n",
            # a package's __init__ resolves `.` to the package itself
            "repro.core.__init__": "from .system import boot\n",
            "repro.core.system": "def boot():\n    pass\n",
        },
        ["LAY001"],
    )
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("LAY001", "src/repro/net/mod.py", 2)
    ]
    assert "upward" in findings[0].message


def test_lay001_one_finding_per_import_line(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.net.mod": "from repro.core.system import boot, shut\n",
            "repro.core.system": "def boot():\n    pass\n\ndef shut():\n    pass\n",
        },
        ["LAY001"],
    )
    assert codes(findings) == ["LAY001"]


def test_lay001_lazy_and_type_checking_imports_are_exempt(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.net.mod": textwrap.dedent(
                """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.core.system import HiRepSystem

                def factory():
                    from repro.core.system import boot
                    return boot
                """
            ),
            "repro.core.system": "def boot():\n    pass\n",
        },
        ["LAY001"],
    )
    assert findings == []


def test_lay001_downward_and_same_package_are_clean(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.core.system": (
                "from repro.sim.engine import step\n"
                "from repro.core.agent import Agent\n"
            ),
            "repro.sim.engine": "def step():\n    pass\n",
            "repro.core.agent": "class Agent:\n    pass\n",
        },
        ["LAY001"],
    )
    assert findings == []


def test_lay001_detects_import_cycles(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.net.a": "from repro.net.b import f\n",
            "repro.net.b": "from repro.net.a import g\n",
        },
        ["LAY001"],
    )
    assert codes(findings) == ["LAY001"]
    assert "cycle" in findings[0].message
    assert "repro.net.a -> repro.net.b -> repro.net.a" in findings[0].message


def test_lay001_devtools_must_not_import_runtime(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.devtools.tool": (
                "from repro.errors import SimulationError\n"
                "from repro.core.system import boot\n"
            ),
            "repro.errors": "class SimulationError(Exception):\n    pass\n",
            "repro.core.system": "def boot():\n    pass\n",
        },
        ["LAY001"],
    )
    assert codes(findings) == ["LAY001"]
    assert "devtools" in findings[0].message


def test_lay001_pragma_on_import_line_suppresses(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.net.mod": (
                "from repro.core.system import boot  # lint: allow[LAY001]\n"
            ),
            "repro.core.system": "def boot():\n    pass\n",
        },
        ["LAY001"],
    )
    assert findings == []


def test_all_rules_run_together_and_sort_stably(tmp_path):
    files = {**CLOCK_HELPER, **BLOCKING}
    files["repro.core.util"] = "def settle():\n    pass\n"
    files["repro.net.mod"] = "from repro.core.util import settle\n"  # upward
    first = analyze(tmp_path, files)
    second = analyze(tmp_path, files)
    assert first == second
    # per-file and whole-program rules, one run (API001: `def settle():`)
    assert set(codes(first)) == {"API001", "DET002", "SRV001", "LAY001"}


def test_lay001_vector_must_not_import_object_kernel_internals(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.vector.system": "from repro.core.peer import HiRepPeer\n",
            "repro.core.peer": "class HiRepPeer:\n    pass\n",
        },
        ["LAY001"],
    )
    assert codes(findings) == ["LAY001"]
    assert "object-kernel internals" in findings[0].message


def test_lay001_vector_may_import_shared_seams(tmp_path):
    findings = analyze(
        tmp_path,
        {
            "repro.vector.system": (
                "from repro.core.semantics import ewma_update\n"
                "from repro.core.config import HiRepConfig\n"
            ),
            "repro.core.semantics": "def ewma_update():\n    pass\n",
            "repro.core.config": "class HiRepConfig:\n    pass\n",
        },
        ["LAY001"],
    )
    assert findings == []
