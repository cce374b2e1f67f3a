"""Report assembly: scorecards, deltas, markdown, diffing, failure paths."""

from __future__ import annotations

import json

import pytest

from repro.campaigns.report import (
    build_report,
    diff_reports,
    load_report,
    render_markdown,
    run_campaign,
    write_report,
)
from repro.campaigns.specs import (
    AttackSpec,
    Campaign,
    ScenarioSpec,
    WorkloadSpec,
)

_TINY = WorkloadSpec(network_size=30, transactions=10)


def tiny_campaign() -> Campaign:
    return Campaign(
        name="tiny",
        scenarios=(
            ScenarioSpec(name="clean", workload=_TINY),
            ScenarioSpec(
                name="collude",
                workload=_TINY,
                attack=AttackSpec.collusion(0.4),
            ),
        ),
        systems=("hirep", "voting"),
        seeds=(5,),
    )


@pytest.fixture(scope="module")
def ran():
    return run_campaign(tiny_campaign())


class TestBuildReport:
    def test_structure(self, ran):
        report, outcomes = ran
        assert report["campaign"] == "tiny"
        assert report["systems"] == ["hirep", "voting"]
        assert len(report["scorecards"]) == 4
        assert report["summary"]["cells"] == 4
        assert report["summary"]["cells_ok"] == 4
        assert report["summary"]["degraded_pairs"] == []
        assert all(o.ok for o in outcomes)

    def test_scorecards_populated_for_both_systems(self, ran):
        report, _ = ran
        for card in report["scorecards"]:
            assert card["metrics"]["mse"] >= 0.0
            assert 0.0 <= card["metrics"]["success_rate"] <= 1.0
            assert card["metrics"]["msgs_per_tx"] >= 0.0

    def test_deltas_only_on_attacked_cards(self, ran):
        report, _ = ran
        by_pair = {(c["scenario"], c["system"]): c for c in report["scorecards"]}
        assert by_pair[("clean", "hirep")]["deltas"] is None
        deltas = by_pair[("collude", "hirep")]["deltas"]
        assert set(deltas) == {
            "mse_delta",
            "success_rate_delta",
            "msgs_per_tx_delta",
            "retries_per_tx_delta",
        }

    def test_report_is_json_clean(self, ran):
        report, _ = ran
        json.dumps(report, allow_nan=False)  # no NaN/Inf anywhere

    def test_outcome_count_mismatch_rejected(self, ran):
        _, outcomes = ran
        with pytest.raises(ValueError, match="outcomes"):
            build_report(tiny_campaign(), outcomes[:-1])


class TestFailureSynthesis:
    def test_scheduler_failure_becomes_job_stage_error(self, ran):
        _, outcomes = ran
        import copy

        broken = [copy.copy(o) for o in outcomes]
        broken[1].payload = None
        broken[1].error = "worker exploded"
        report = build_report(tiny_campaign(), broken)
        card = next(
            c
            for c in report["scorecards"]
            if (c["scenario"], c["system"]) == ("clean", "voting")
        )
        assert card["degraded"]
        assert card["errors"][0]["stage"] == "job"
        assert "worker exploded" in card["errors"][0]["message"]
        assert ["clean", "voting"] in report["summary"]["degraded_pairs"]


class TestRendering:
    def test_markdown_has_all_pairs(self, ran):
        report, _ = ran
        md = render_markdown(report)
        assert "| clean | hirep |" in md
        assert "| collude | voting |" in md
        assert "ΔMSE" in md

    def test_degraded_section_lists_errors(self, ran):
        _, outcomes = ran
        import copy

        broken = [copy.copy(o) for o in outcomes]
        broken[0].payload = None
        broken[0].error = "boom"
        md = render_markdown(build_report(tiny_campaign(), broken))
        assert "Degraded cells" in md
        assert "[job] JobFailure: boom" in md


class TestDiff:
    def test_identical_reports(self, ran):
        report, _ = ran
        assert diff_reports(report, json.loads(json.dumps(report))) == []

    def test_metric_drift_reported(self, ran):
        report, _ = ran
        drifted = json.loads(json.dumps(report))
        drifted["scorecards"][0]["metrics"]["mse"] += 0.001
        diffs = diff_reports(report, drifted)
        assert any("metrics.mse" in d for d in diffs)

    def test_missing_pair_reported(self, ran):
        report, _ = ran
        shrunk = json.loads(json.dumps(report))
        shrunk["scorecards"] = shrunk["scorecards"][:-1]
        diffs = diff_reports(report, shrunk)
        assert any("only in first report" in d for d in diffs)

    def test_campaign_hash_mismatch(self, ran):
        report, _ = ran
        other = json.loads(json.dumps(report))
        other["campaign_hash"] = "0" * 64
        assert any("campaign_hash" in d for d in diff_reports(report, other))


class TestSerialisation:
    def test_write_load_round_trip(self, ran, tmp_path):
        report, _ = ran
        path = write_report(report, tmp_path / "sub" / "report.json")
        assert load_report(path) == report

    def test_written_bytes_are_canonical(self, ran, tmp_path):
        report, _ = ran
        a = write_report(report, tmp_path / "a.json").read_bytes()
        b = write_report(load_report(tmp_path / "a.json"), tmp_path / "b.json").read_bytes()
        assert a == b
