"""Integration: the fast examples execute end-to-end as real scripts.

(The compile/import checks live in tests/unit/test_examples_compile.py;
the slower examples — pollution, attacks, churn — exercise code paths the
integration suite already covers directly.)
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).parent.parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart_runs_and_reports():
    out = run_example("quickstart.py")
    assert "hiREP after 200 transactions" in out
    assert "pure voting baseline" in out
    assert "%" in out  # the traffic-ratio line


def test_anonymity_walkthrough_over_rsa():
    out = run_example("anonymity_walkthrough.py")
    assert "verifies against her SP : True" in out
    assert "verifies against Mallory: False" in out
    assert "fake-onion core" in out
