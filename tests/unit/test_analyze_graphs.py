"""Call-graph resolution and import-graph cycles over fixture summaries."""

from __future__ import annotations

import textwrap

from repro.devtools.lint import FileContext
from repro.devtools.lint.graphs import build_graphs, func_key
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


def edge_set(calls):
    return {(e.caller, e.callee) for e in calls.edges}


def test_cross_module_from_import_resolves():
    _, _, calls = graphs(
        {
            "pkg.a": "from pkg.b import helper\n\ndef go():\n    helper()\n",
            "pkg.b": "def helper():\n    pass\n",
        }
    )
    assert (func_key("pkg.a", "go"), func_key("pkg.b", "helper")) in edge_set(calls)


def test_aliased_module_import_resolves():
    _, _, calls = graphs(
        {
            "pkg.a": "import pkg.b as bee\n\ndef go():\n    bee.helper()\n",
            "pkg.b": "def helper():\n    pass\n",
        }
    )
    assert (func_key("pkg.a", "go"), func_key("pkg.b", "helper")) in edge_set(calls)


def test_plain_dotted_module_import_resolves():
    _, _, calls = graphs(
        {
            "pkg.a": "import pkg.b\n\ndef go():\n    pkg.b.helper()\n",
            "pkg.b": "def helper():\n    pass\n",
        }
    )
    assert (func_key("pkg.a", "go"), func_key("pkg.b", "helper")) in edge_set(calls)


def test_self_method_and_base_class_resolution():
    _, _, calls = graphs(
        {
            "pkg.base": textwrap.dedent(
                """
                class Base:
                    def shared(self):
                        pass
                """
            ),
            "pkg.a": textwrap.dedent(
                """
                from pkg.base import Base

                class Child(Base):
                    def own(self):
                        self.shared()
                        self.own()
                """
            ),
        }
    )
    edges = edge_set(calls)
    assert (func_key("pkg.a", "Child.own"), func_key("pkg.base", "Base.shared")) in edges
    assert (func_key("pkg.a", "Child.own"), func_key("pkg.a", "Child.own")) in edges


def test_constructor_typed_local_and_attribute():
    _, _, calls = graphs(
        {
            "pkg.svc": textwrap.dedent(
                """
                class Service:
                    def work(self):
                        pass
                """
            ),
            "pkg.a": textwrap.dedent(
                """
                from pkg.svc import Service

                class Holder:
                    def __init__(self):
                        self.svc = Service()

                    def run(self):
                        self.svc.work()

                def local():
                    s = Service()
                    s.work()
                """
            ),
        }
    )
    edges = edge_set(calls)
    work = func_key("pkg.svc", "Service.work")
    assert (func_key("pkg.a", "Holder.run"), work) in edges
    assert (func_key("pkg.a", "local"), work) in edges
    # constructing Service() runs nothing here (no __init__) but must not crash


def test_constructor_call_reaches_init():
    _, _, calls = graphs(
        {
            "pkg.svc": textwrap.dedent(
                """
                class Service:
                    def __init__(self):
                        setup()

                def setup():
                    pass
                """
            ),
            "pkg.a": "from pkg.svc import Service\n\ndef go():\n    Service()\n",
        }
    )
    assert (
        func_key("pkg.a", "go"),
        func_key("pkg.svc", "Service.__init__"),
    ) in edge_set(calls)


def test_unresolved_calls_become_external_with_dotted_name():
    _, _, calls = graphs(
        {"pkg.a": "import time\n\ndef go():\n    time.sleep(1)\n"}
    )
    ext = {(c.caller, c.dotted) for c in calls.external}
    assert (func_key("pkg.a", "go"), "time.sleep") in ext


def test_untyped_receiver_methods_stay_external_as_written():
    _, _, calls = graphs(
        {"pkg.a": "def go(conn):\n    conn.read()\n    helper()\n"}
    )
    # the method keeps its name for suffix-matching; the unbound bare name is dropped
    assert {(c.caller, c.dotted) for c in calls.external} == {
        (func_key("pkg.a", "go"), "conn.read")
    }


def test_known_builtins_stay_recognizable():
    _, _, calls = graphs({"pkg.a": "def go(p):\n    open(p)\n"})
    assert {(c.caller, c.dotted) for c in calls.external} == {
        (func_key("pkg.a", "go"), "open")
    }


def test_import_graph_scopes_and_type_checking():
    _, imports, _ = graphs(
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
    _, imports, _ = graphs(
        {
            "pkg.a": "from pkg.b import f\n",
            "pkg.b": "from pkg.a import g\n",
            "pkg.c": "from pkg.a import g\n",
        }
    )
    assert imports.cycles() == [["pkg.a", "pkg.b"]]


def test_no_false_cycles_on_dags():
    _, imports, _ = graphs(
        {
            "pkg.a": "from pkg.b import f\nfrom pkg.c import h\n",
            "pkg.b": "from pkg.c import h\n",
            "pkg.c": "def h():\n    pass\n",
        }
    )
    assert imports.cycles() == []


def test_graph_dicts_are_sorted_and_stable():
    _, imports, calls = graphs(
        {
            "pkg.z": "from pkg.a import f\n\ndef zz():\n    f()\n",
            "pkg.a": "def f():\n    pass\n",
        }
    )
    d1 = (imports.to_dict(), calls.to_dict())
    d2 = (imports.to_dict(), calls.to_dict())
    assert d1 == d2
    assert list(d1[0]["module_scope"]) == sorted(d1[0]["module_scope"])
