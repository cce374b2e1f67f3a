"""End-to-end campaign runs through ``hirep-experiments``: cache replay,
degraded cells, determinism, and ``hirep-obs diff`` on the reports.

The acceptance claims for the campaign engine:

* a second run over the same cache directory satisfies every cell from
  the result cache and writes byte-identical reports;
* reports are byte-identical across ``PYTHONHASHSEED`` values and across
  serial vs pool execution;
* a scenario that cannot even be built degrades its cells with a
  structured ``cell_error`` instead of crashing the sweep; the report is
  still written and the run exits 1 (strict is the only mode).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaigns.catalogue import CAMPAIGNS, register_campaign
from repro.campaigns.report import load_report, render_markdown
from repro.campaigns.specs import (
    AttackSpec,
    Campaign,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.experiments.runner import main
from repro.obs.cli import main as obs_main

REPO_ROOT = Path(__file__).resolve().parents[2]
_TINY = WorkloadSpec(network_size=30, transactions=10)


def itest_campaign() -> Campaign:
    return Campaign(
        name="itest-tiny",
        scenarios=(
            ScenarioSpec(name="clean", workload=_TINY),
            ScenarioSpec(
                name="sybil",
                workload=_TINY,
                attack=AttackSpec.sybil(count=6, compromised_fraction=0.2),
            ),
        ),
        systems=("hirep", "voting"),
        seeds=(11,),
    )


def itest_broken_campaign() -> Campaign:
    return Campaign(
        name="itest-broken",
        scenarios=(
            ScenarioSpec(name="clean", workload=_TINY),
            ScenarioSpec(
                name="unbuildable",
                workload=WorkloadSpec(
                    network_size=30,
                    transactions=10,
                    overrides={"no_such_knob": 1},
                ),
            ),
        ),
        systems=("hirep",),
        seeds=(11,),
    )


@pytest.fixture(scope="module", autouse=True)
def _registered():
    register_campaign(itest_campaign)
    register_campaign(itest_broken_campaign)
    yield
    CAMPAIGNS.pop("itest-tiny", None)
    CAMPAIGNS.pop("itest-broken", None)


def run(name: str, out: Path, *flags: str) -> int:
    return main([name, "--out", str(out), *flags])


class TestCacheReplay:
    def test_second_run_all_cached_and_byte_identical(self, tmp_path, capsys):
        out, cache = tmp_path / "run", str(tmp_path / "cache")
        assert run("itest-tiny", out, "--cache-dir", cache) == 0
        first_json = (out / "itest-tiny.json").read_bytes()
        first_md = (out / "itest-tiny.md").read_bytes()
        capsys.readouterr()

        assert run("itest-tiny", out, "--cache-dir", cache) == 0
        assert "jobs: 4 total | 0 run | 4 cached | 0 failed" in capsys.readouterr().out
        assert (out / "itest-tiny.json").read_bytes() == first_json
        assert (out / "itest-tiny.md").read_bytes() == first_md

    def test_pool_mode_matches_serial(self, tmp_path):
        serial = tmp_path / "serial"
        pool = tmp_path / "pool"
        assert run("itest-tiny", serial) == 0
        assert run("itest-tiny", pool, "--jobs", "2", "--no-cache") == 0
        assert (serial / "itest-tiny.json").read_bytes() == (
            pool / "itest-tiny.json"
        ).read_bytes()


class TestStrictMode:
    def test_broken_scenario_degrades_not_crashes(self, tmp_path, capsys):
        out = tmp_path / "broken"
        run("itest-broken", out)
        err = capsys.readouterr().err
        assert "degraded cells: itest-broken/unbuildable[hirep,seed=11]" in err
        report = load_report(out / "itest-broken.json")
        card = next(
            c for c in report["scorecards"] if c["scenario"] == "unbuildable"
        )
        assert card["degraded"]
        assert card["errors"][0]["stage"] == "config"
        assert card["errors"][0]["type"] == "TypeError"
        clean = next(c for c in report["scorecards"] if c["scenario"] == "clean")
        assert not clean["degraded"] and clean["metrics"]

    def test_strict_exits_nonzero(self, tmp_path, capsys):
        """Strict is the only mode: the report is written, then exit 1."""
        out = tmp_path / "strict"
        assert run("itest-broken", out) == 1
        capsys.readouterr()
        assert (out / "itest-broken.json").is_file()
        assert (out / "itest-broken.md").is_file()

    def test_strict_passes_on_healthy_campaign(self, tmp_path, capsys):
        assert run("itest-tiny", tmp_path / "healthy") == 0
        assert "degraded" not in capsys.readouterr().err


class TestCliSurface:
    def test_list_names_the_catalogue_after_the_experiments(self, capsys):
        assert main(["--list"]) == 0
        ids = capsys.readouterr().out.split()
        assert ids.index("report_models") < ids.index("mini")
        assert {"mini", "sybil-wave", "itest-tiny"} <= set(ids)

    def test_report_and_diff_round_trip(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert run("itest-tiny", out) == 0
        md = (out / "itest-tiny.md").read_text()
        assert md == render_markdown(load_report(out / "itest-tiny.json"))
        assert md in capsys.readouterr().out
        report = str(out / "itest-tiny.json")
        assert obs_main(["diff", report, report, "--exit-code"]) == 0
        assert "reports are identical" in capsys.readouterr().out

    def test_diff_exit_code_on_difference(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run("itest-tiny", out) == 0
        report = json.loads((out / "itest-tiny.json").read_text())
        report["scorecards"][0]["metrics"]["mse"] += 1.0
        (out / "tampered.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert (
            obs_main(
                [
                    "diff",
                    str(out / "itest-tiny.json"),
                    str(out / "tampered.json"),
                    "--exit-code",
                ]
            )
            == 1
        )
        assert "metrics.mse" in capsys.readouterr().out


class TestGoldenReport:
    def test_committed_golden_matches_fresh_mini_run(self, tmp_path, capsys):
        """tests/data/mini_campaign_golden.json is what `mini` produces today.

        CI diffs a fresh run against this file; this test keeps the local
        suite equally honest, so a drift in trust math, attack attachment
        or the fault plane is caught before push.
        """
        out = tmp_path / "mini"
        assert run("mini", out) == 0
        capsys.readouterr()
        golden = REPO_ROOT / "tests" / "data" / "mini_campaign_golden.json"
        assert golden.read_bytes() == (out / "mini.json").read_bytes()


_RUN_SCRIPT = """
import sys
from repro.experiments.runner import main

sys.exit(main(["mini", "--out", sys.argv[1]]))
"""


class TestByteDeterminism:
    def test_report_identical_across_pythonhashseed(self, tmp_path):
        paths = []
        for hashseed, sub in (("0", "a"), ("4242", "b")):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            out = tmp_path / sub
            subprocess.run(
                [sys.executable, "-c", _RUN_SCRIPT, str(out)],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                cwd=REPO_ROOT,
            )
            paths.append(out)
        for name in ("mini.json", "mini.md"):
            assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()
