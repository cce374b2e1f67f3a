"""hirep-lint CLI: exit codes, reporters, rule selection, the graph dump."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.devtools.lint.cli import main

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

CLEAN = "VALUE = 1\n"
#: one per-file finding (DET001) and one whole-program finding (LAY001)
VIOLATION = "import random\nfrom repro.core.system import boot\n"


def make_repo(tmp_path: Path, net_mod: str = CLEAN) -> Path:
    """A mini checkout with repro.net.mod and repro.core.system."""
    for module, source in {
        "repro.net.mod": net_mod,
        "repro.core.system": "def boot() -> None:\n    pass\n",
    }.items():
        path = (tmp_path / "src").joinpath(*module.split(".")).with_suffix(".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        parent = path.parent
        while parent != tmp_path / "src":
            (parent / "__init__.py").touch()
            parent = parent.parent
        path.write_text(source)
    return tmp_path


def run(root: Path, *extra: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(["src", "--root", str(root), *extra], stream=out)
    return code, out.getvalue()


def test_clean_tree_exits_zero(tmp_path):
    code, out = run(make_repo(tmp_path))
    assert code == 0
    assert "0 finding(s)" in out


def test_new_finding_exits_one(tmp_path):
    code, out = run(make_repo(tmp_path, VIOLATION))
    assert code == 1
    assert "DET001" in out and "LAY001" in out and "2 finding(s)" in out


def test_json_reporter(tmp_path):
    code, out = run(make_repo(tmp_path, VIOLATION), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["errors"] == []
    assert [(f["rule"], f["path"], f["line"]) for f in payload["findings"]] == [
        ("DET001", "src/repro/net/mod.py", 1),
        ("LAY001", "src/repro/net/mod.py", 2),
    ]


def test_github_reporter_annotations(tmp_path):
    code, out = run(make_repo(tmp_path, VIOLATION), "--format", "github")
    assert code == 1
    assert out.startswith("::error file=")
    assert "title=DET001" in out and "title=LAY001" in out


def test_select(tmp_path):
    root = make_repo(tmp_path, VIOLATION)
    assert run(root, "--select", "DET002")[0] == 0  # nothing selected fires
    code, out = run(root, "--select", "DET001")
    assert code == 1 and "LAY001" not in out
    # a per-file and a whole-program code select together
    code, out = run(root, "--select", "DET001", "--select", "LAY001")
    assert code == 1 and "2 finding(s)" in out


def test_unknown_rule_code_exits_two(tmp_path):
    code, _ = run(make_repo(tmp_path), "--select", "NOPE999")
    assert code == 2


def test_list_rules():
    out = io.StringIO()
    assert main(["--list-rules"], stream=out) == 0
    listed = {line.split()[0]: line for line in out.getvalue().strip().splitlines()}
    assert "(whole program)" in listed["LAY001"]
    assert "(repro.serve)" in listed["SRV001"]
    assert "(repro)" in listed["DET001"]


def test_syntax_error_reported_not_fatal(tmp_path):
    code, out = run(make_repo(tmp_path, "def broken(:\n"))
    assert code == 1
    assert "syntax error" in out


def test_graph_subcommand_dumps_deterministic_json(tmp_path):
    root = make_repo(tmp_path, VIOLATION)
    out1, out2 = io.StringIO(), io.StringIO()
    assert main(["graph", "src", "--root", str(root)], stream=out1) == 0
    assert main(["graph", "src", "--root", str(root)], stream=out2) == 0
    assert out1.getvalue() == out2.getvalue()
    payload = json.loads(out1.getvalue())
    assert sorted(payload) == ["errors", "imports", "modules", "statements"]
    assert "repro.net.mod" in payload["modules"]
    assert payload["imports"]["module_scope"]["repro.net.mod"] == [
        "repro.core.system"
    ]
    # ast.stmt nodes per top-level package: `def boot` + `pass`, two imports
    assert payload["statements"] == {"repro": 0, "repro.core": 2, "repro.net": 2}


def test_graph_json_is_byte_identical_across_hash_seeds(tmp_path):
    """PYTHONHASHSEED must not leak into the dump, and ``-m`` runs warn-free."""
    root = make_repo(tmp_path, VIOLATION)
    dumps = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC_ROOT))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.devtools.lint.cli",
                "graph",
                "src",
                "--root",
                str(root),
            ],
            capture_output=True,
            env=env,
            check=True,
        )
        assert proc.stderr == b""
        dumps.append(proc.stdout)
    assert dumps[0] == dumps[1]
