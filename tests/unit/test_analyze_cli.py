"""hirep-lint CLI over a multi-module tree: whole-program rules, graph dump."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.devtools.lint.cli import main

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

UPWARD = "from repro.core.system import boot\n"
CLEAN = "VALUE = 1\n"


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
        path.write_text(textwrap.dedent(source))
    return tmp_path


def run(root: Path, *extra: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(["src", "--root", str(root), *extra], stream=out)
    return code, out.getvalue()


def test_clean_tree_exits_zero(tmp_path):
    code, out = run(make_repo(tmp_path))
    assert code == 0
    assert "0 finding(s)" in out


def test_upward_import_exits_one(tmp_path):
    code, out = run(make_repo(tmp_path, UPWARD))
    assert code == 1
    assert "LAY001" in out


def test_select(tmp_path):
    root = make_repo(tmp_path, UPWARD)
    code, _ = run(root, "--select", "LAY001")
    assert code == 1
    code, _ = run(root, "--select", "TNT003")
    assert code == 0
    # a per-file and a whole-program code select together
    code, out = run(root, "--select", "DET001", "--select", "LAY001")
    assert code == 1 and "LAY001" in out


def test_unknown_rule_code_exits_two(tmp_path):
    code, _ = run(make_repo(tmp_path), "--select", "NOPE999")
    assert code == 2


def test_list_rules(tmp_path):
    code, out = run(make_repo(tmp_path), "--list-rules")
    assert code == 0
    listed = {line.split()[0]: line for line in out.strip().splitlines()}
    for code in ("LAY001", "SRV001", "TNT003"):
        assert "(whole program)" in listed[code]
    assert "(repro)" in listed["DET001"]


def test_json_format(tmp_path):
    code, out = run(make_repo(tmp_path, UPWARD), "--format", "json")
    payload = json.loads(out)
    assert [f["rule"] for f in payload["findings"]] == ["LAY001"]


def test_github_format_emits_annotations(tmp_path):
    code, out = run(make_repo(tmp_path, UPWARD), "--format", "github")
    assert out.startswith("::error file=")
    assert "LAY001" in out


def test_graph_subcommand_dumps_deterministic_json(tmp_path):
    root = make_repo(tmp_path, UPWARD)
    out1, out2 = io.StringIO(), io.StringIO()
    assert main(["graph", "src", "--root", str(root)], stream=out1) == 0
    assert main(["graph", "src", "--root", str(root)], stream=out2) == 0
    assert out1.getvalue() == out2.getvalue()
    payload = json.loads(out1.getvalue())
    assert "repro.net.mod" in payload["modules"]
    assert payload["imports"]["module_scope"]["repro.net.mod"] == [
        "repro.core.system"
    ]
    # ast.stmt nodes per top-level package: `def boot` + `pass`, one import
    assert payload["statements"] == {"repro": 0, "repro.core": 2, "repro.net": 1}


def test_graph_json_is_byte_identical_across_hash_seeds(tmp_path):
    """PYTHONHASHSEED must not leak into the dumped graphs."""
    root = make_repo(tmp_path, UPWARD)
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
        dumps.append(proc.stdout)
    assert dumps[0] == dumps[1]
