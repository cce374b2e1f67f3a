"""Import-record resolution and import-graph cycles over fixture summaries."""

from __future__ import annotations

import textwrap

from repro.devtools.lint import FileContext
from repro.devtools.lint.graphs import build_graphs
from repro.devtools.lint.summaries import extract_summary


def graphs(files: dict[str, str]):
    summaries = {
        module: extract_summary(
            FileContext.parse(
                textwrap.dedent(source),
                module=module,
                path=f"src/{module.replace('.', '/')}.py",
            )
        )
        for module, source in files.items()
    }
    return build_graphs(summaries)


HELPER = {"pkg.b": "def helper():\n    pass\n"}


def test_cross_module_from_import_resolves():
    _, imports = graphs({"pkg.a": "from pkg.b import helper\n", **HELPER})
    assert imports.module_scope == {"pkg.a": ["pkg.b"]}


def test_aliased_module_import_resolves():
    _, imports = graphs(
        {"pkg.a": "import pkg.b as bee\nfrom pkg import b as bee2\n", **HELPER}
    )
    assert imports.module_scope == {"pkg.a": ["pkg.b"]}


def test_plain_dotted_module_import_resolves():
    # a dotted tail below a module is an attribute, not a further module
    _, imports = graphs(
        {"pkg.a": "import pkg.b\nfrom pkg.b.helper import x\n", **HELPER}
    )
    assert imports.module_scope == {"pkg.a": ["pkg.b"]}


def test_import_graph_scopes_and_type_checking():
    _, imports = graphs(
        {
            "pkg.a": textwrap.dedent(
                """
                from typing import TYPE_CHECKING

                from pkg.b import helper

                if TYPE_CHECKING:
                    from pkg.d import Ghost

                def lazy():
                    from pkg.c import late
                    return late
                """
            ),
            "pkg.b": "def helper():\n    pass\n",
            "pkg.c": "def late():\n    pass\n",
            "pkg.d": "class Ghost:\n    pass\n",
        }
    )
    assert imports.module_scope["pkg.a"] == ["pkg.b"]
    assert imports.local_scope["pkg.a"] == ["pkg.c"]


def test_import_cycle_detection():
    _, imports = graphs(
        {
            "pkg.a": "from pkg.b import f\n",
            "pkg.b": "from pkg.a import g\n",
            "pkg.c": "from pkg.a import g\n",
        }
    )
    assert imports.cycles() == [["pkg.a", "pkg.b"]]


def test_no_false_cycles_on_dags():
    _, imports = graphs(
        {
            "pkg.a": "from pkg.b import f\nfrom pkg.c import h\n",
            "pkg.b": "from pkg.c import h\n",
            "pkg.c": "def h():\n    pass\n",
        }
    )
    assert imports.cycles() == []


def test_graph_dicts_are_sorted_and_stable():
    files = {
        "pkg.z": "from pkg.a import f\nfrom pkg.m import g\n",
        "pkg.m": "from pkg.a import f\n",
        "pkg.a": "def f():\n    pass\n",
    }
    d1 = graphs(files)[1].to_dict()
    d2 = graphs(dict(reversed(files.items())))[1].to_dict()
    assert d1 == d2
    assert list(d1["module_scope"]) == sorted(d1["module_scope"]) == ["pkg.m", "pkg.z"]
    assert d1["module_scope"]["pkg.z"] == ["pkg.a", "pkg.m"]
