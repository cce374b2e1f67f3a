"""Unit tests for the JSONL run manifest and the sweep-plan protocol."""

import pytest

from repro.campaigns.specs import Campaign, ScenarioSpec, WorkloadSpec
from repro.exec.job import JobSpec
from repro.exec.manifest import RunManifest
from repro.exec.scheduler import JobFailure
from repro.exec.sweeps import SweepPlan, plan_for, replication_plan
from repro.experiments import degradation, fig5_traffic, traffic_analysis
from repro.experiments.common import ExperimentResult


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunManifest(path) as manifest:
            manifest.append("run_start", experiments=["fig5"], scale="small",
                            seed=None, replicate=None, jobs=2, out=None,
                            cache_dir="c")
            spec = JobSpec(module="m", kwargs={"a": 1}, label="fig5")
            manifest.append("submitted", key="k1", index=0, spec=spec.to_dict())
            manifest.append("started", key="k1", index=0, attempt=1)
            manifest.append("failed", key="k1", index=0, attempt=1, error="boom")
            manifest.append("started", key="k1", index=0, attempt=2)
            manifest.append("finished", key="k1", index=0, attempt=2,
                            elapsed_s=0.5, rss_kb=1024)
            manifest.append("cache_hit", key="k2", index=1)
        events = RunManifest.load(path)
        assert [e["event"] for e in events] == [
            "run_start", "submitted", "started", "failed", "started",
            "finished", "cache_hit",
        ]
        assert all("ts" in e for e in events)

    def test_run_config_and_completed_keys(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunManifest(path) as manifest:
            manifest.append("run_start", experiments=["degradation"],
                            scale="small", jobs=4)
            manifest.append("submitted", key="k1", index=0,
                            spec={"module": "m", "func": "run", "kwargs": {}})
            manifest.append("finished", key="k1", index=0, attempt=1,
                            elapsed_s=1.0, rss_kb=1)
            manifest.append("failed", key="k2", index=1, attempt=1, error="x")
            manifest.append("cache_hit", key="k3", index=2)
        events = RunManifest.load(path)
        config = RunManifest.run_config(events)
        assert config["experiments"] == ["degradation"]
        assert config["jobs"] == 4
        assert RunManifest.completed_keys(events) == {"k1", "k3"}
        assert RunManifest.submitted_specs(events) == [
            {"module": "m", "func": "run", "kwargs": {}}
        ]

    def test_tolerates_torn_tail_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunManifest(path) as manifest:
            manifest.append("submitted", key="k1", index=0, spec={})
        with path.open("a") as fh:
            fh.write('{"event": "finished", "key": "k1", "trunc')  # killed mid-write
        events = RunManifest.load(path)
        assert [e["event"] for e in events] == ["submitted"]
        assert RunManifest.completed_keys(events) == set()

    def test_append_only_across_instances(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunManifest(path) as manifest:
            manifest.append("run_start")
        with RunManifest(path) as manifest:
            manifest.append("run_end")
        assert [e["event"] for e in RunManifest.load(path)] == [
            "run_start", "run_end",
        ]


class TestSweepPlans:
    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            SweepPlan(specs=[], assemble=lambda values: values)

    def test_plan_for_module_without_plan_is_single_job(self):
        plan = plan_for("traffic_analysis", traffic_analysis, {"network_size": 10})
        assert len(plan.specs) == 1
        spec = plan.specs[0]
        assert spec.module == "repro.experiments.traffic_analysis"
        assert spec.func == "run" and spec.label == "traffic_analysis"
        sentinel = ExperimentResult("traffic_analysis", "t", "x", "y")
        assert plan.assemble([sentinel]) is sentinel

    def test_plan_for_module_with_plan_fans_out(self):
        plan = plan_for(
            "degradation", degradation,
            {"network_size": 50, "transactions": 5},
        )
        # 4 loss rates x 2 crash fractions by default, one campaign cell each
        assert len(plan.specs) == 8
        assert all(s.module == "repro.campaigns.cells" for s in plan.specs)
        assert all(s.func == "campaign_cell" for s in plan.specs)
        assert plan.specs[0].label == "degradation/crash=0,loss=0[hirep,seed=2006]"
        assert plan.specs[-1].label == "degradation/crash=0.15,loss=0.3[hirep,seed=2006]"

    def test_plan_run_raises_a_job_failure_naming_the_cell(self):
        plan = SweepPlan(
            specs=[
                JobSpec(
                    module="repro.exec.testing",
                    func="sleepy",
                    kwargs={"seconds": 0.0, "value": 1.0},
                    label="fine",
                ),
                JobSpec(module="repro.exec.testing", func="no_such_job", label="broken"),
            ],
            assemble=lambda values: values,
        )
        with pytest.raises(JobFailure, match="job broken failed after 1 attempt"):
            plan.run()

    def test_a_degraded_campaign_cell_is_a_failed_job(self):
        # An override HiRepConfig has no field for fails at the config stage;
        # campaign_cell returns that as a cell_error, the plan raises it.
        scenario = ScenarioSpec(
            name="broken",
            workload=WorkloadSpec(
                network_size=20, transactions=2, overrides={"no_such_knob": 1}
            ),
        )
        campaign = Campaign(name="c", scenarios=(scenario,), systems=("hirep",), seeds=(1,))
        plan = SweepPlan(specs=campaign.compile(), assemble=lambda values: values)
        with pytest.raises(
            JobFailure, match=r"job c/broken\[hirep,seed=1\] failed .*: \[config\] "
        ):
            plan.run()

    def test_replication_plan_one_job_per_seed(self):
        plan = replication_plan(
            "fig5", fig5_traffic, range(7, 10), {"network_size": 10}
        )
        assert [s.kwargs["seed"] for s in plan.specs] == [7, 8, 9]
        assert all(s.kwargs["network_size"] == 10 for s in plan.specs)
        assert plan.specs[1].label == "fig5[seed=8]"
