"""Static-analysis runtime budget: one full-tree pass stays cheap.

``hirep-lint`` runs in CI on every push and inside tier-1 (the self-lint
test), so its cost is part of the development loop.  The guard holds in
assert form under ``--benchmark-disable``, which is how the CI lint job
runs this file: parsing every file once, assembling the import graph and
running every rule over ``src``, ``examples`` and ``benchmarks`` stays
inside a wall-clock budget set well above the 1.9–2.2 s it measures on a
2-core Xeon host, to catch an accidental quadratic blow-up, not to race
the clock.
"""

from __future__ import annotations

from pathlib import Path

from repro.devtools.lint import lint_paths
from repro.obs.clock import WallClock

REPO_ROOT = Path(__file__).resolve().parents[1]
TARGETS = [REPO_ROOT / "src", REPO_ROOT / "examples", REPO_ROOT / "benchmarks"]

BUDGET_SECONDS = 20.0


def _lint():
    return lint_paths(TARGETS, repo_root=REPO_ROOT)


def test_full_tree_lint_stays_inside_budget(perf):
    clock = WallClock()
    result = _lint()
    elapsed = clock.now / 1000.0
    assert result.errors == [] and result.findings == []
    perf.record("lint", {"full_tree_s": elapsed})
    assert elapsed < BUDGET_SECONDS, (
        f"hirep-lint over the full tree took {elapsed:.1f}s "
        f"(budget {BUDGET_SECONDS:.0f}s)"
    )


def test_bench_full_tree_lint(benchmark):
    assert benchmark(_lint).findings == []
