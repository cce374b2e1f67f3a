"""hirep-lint CLI: exit codes, reporters, rule selection."""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.devtools.lint.cli import main

VIOLATION = "import random\n"
CLEAN = "VALUE = 1\n"


def make_repo(tmp_path: Path, source: str) -> Path:
    """A mini checkout whose file resolves to module ``repro.sim.mod``."""
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    for init in (pkg / "__init__.py", pkg.parent / "__init__.py"):
        init.write_text("")
    (pkg / "mod.py").write_text(source)
    return tmp_path


def run(root: Path, *extra: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(["src", "--root", str(root), *extra], stream=out)
    return code, out.getvalue()


def test_clean_tree_exits_zero(tmp_path):
    code, out = run(make_repo(tmp_path, CLEAN))
    assert code == 0
    assert "0 finding(s)" in out


def test_new_finding_exits_one(tmp_path):
    code, out = run(make_repo(tmp_path, VIOLATION))
    assert code == 1
    assert "DET001" in out and "1 finding(s)" in out


def test_json_reporter(tmp_path):
    code, out = run(make_repo(tmp_path, VIOLATION), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["errors"] == []
    (finding,) = payload["findings"]
    assert finding["rule"] == "DET001"
    assert finding["path"] == "src/repro/sim/mod.py" and finding["line"] == 1


def test_github_reporter_annotations(tmp_path):
    code, out = run(make_repo(tmp_path, VIOLATION), "--format", "github")
    assert code == 1
    assert out.startswith("::error file=")
    assert "title=DET001" in out


def test_select(tmp_path):
    root = make_repo(tmp_path, VIOLATION)
    code, _ = run(root, "--select", "DET002")
    assert code == 0  # DET001 not selected
    code, _ = run(root, "--select", "DET002", "--select", "DET001")
    assert code == 1
    code, _ = run(root, "--select", "NOPE999")
    assert code == 2


def test_list_rules(tmp_path):
    out = io.StringIO()
    assert main(["--list-rules"], stream=out) == 0
    listing = out.getvalue()
    # per-file and whole-program rules come out of the one registry
    for code in ("DET001", "DET002", "DET003", "EXC001", "API001", "SRV001", "LAY001"):
        assert code in listing


def test_syntax_error_reported_not_fatal(tmp_path):
    root = make_repo(tmp_path, "def broken(:\n")
    code, out = run(root)
    assert code == 1
    assert "syntax error" in out
