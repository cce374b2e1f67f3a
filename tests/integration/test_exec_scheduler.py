"""Integration tests for the orchestration engine.

The load-bearing guarantees:

* ``--jobs 2`` produces byte-identical exported JSON to ``--jobs 1``
  (determinism guard, over the paper's figures and a real sweep);
* a job whose worker crashes on the first attempt is retried and
  succeeds (both the in-process and the broken-pool path);
* a second run over the same jobs is served entirely from the cache;
* an interrupted sweep resumes from its manifest without re-running
  finished jobs;
* a hung job is timed out, not waited on forever.
"""

import pytest

from repro.exec import (
    JobFailure,
    JobSpec,
    ResultCache,
    RunManifest,
    SweepScheduler,
    job_key,
    plan_for,
)
from repro.experiments import (
    degradation,
    fig5_traffic,
    fig6_accuracy,
    fig8_response,
    traffic_bound,
)
from repro.experiments.export import result_to_json

TINY_FIGURES = {
    "fig5": (fig5_traffic, {"network_size": 120, "transactions": 20}),
    "fig6": (fig6_accuracy, {"network_size": 120, "transactions": 20, "window": 5}),
    "fig8": (fig8_response, {"network_size": 120, "transactions": 20}),
    "traffic_bound": (
        traffic_bound,
        {"network_size": 80, "transactions": 5, "agents_counts": (2, 5)},
    ),
}
TINY_SWEEP = {
    "network_size": 80,
    "transactions": 10,
    "loss_rates": (0.0, 0.2),
    "crash_fractions": (0.0,),
}


def _exported(plan, jobs):
    outcomes = SweepScheduler(jobs=jobs).run(plan.specs)
    result = plan.assemble([o.value() for o in outcomes])
    return result_to_json(result)


class TestDeterminism:
    @pytest.mark.parametrize("name", list(TINY_FIGURES))
    def test_paper_figure_jobs2_matches_serial(self, name):
        module, kwargs = TINY_FIGURES[name]
        plan = plan_for(name, module, kwargs)
        assert _exported(plan, jobs=2) == _exported(plan, jobs=1)

    def test_degradation_jobs2_matches_serial(self):
        plan = plan_for("degradation", degradation, TINY_SWEEP)
        assert len(plan.specs) == 2  # one per loss rate
        assert _exported(plan, jobs=2) == _exported(plan, jobs=1)

    def test_parallel_sweep_matches_inline_run(self):
        plan = plan_for("degradation", degradation, TINY_SWEEP)
        outcomes = SweepScheduler(jobs=2).run(plan.specs)
        parallel = plan.assemble([o.value() for o in outcomes])
        serial = degradation.run(**TINY_SWEEP)
        assert result_to_json(parallel) == result_to_json(serial)


class TestRetry:
    def test_serial_retry_after_exception(self, tmp_path):
        spec = JobSpec(
            module="repro.exec.testing",
            func="flaky",
            kwargs={"sentinel": str(tmp_path / "flaky.tok"), "value": 9.0},
        )
        (outcome,) = SweepScheduler(jobs=1, retries=1).run([spec])
        assert outcome.ok and outcome.attempts == 2
        assert outcome.value()["value"] == 9.0

    def test_serial_exhausted_retries_reports_failure(self, tmp_path):
        spec = JobSpec(
            module="repro.exec.testing",
            func="flaky",
            kwargs={"sentinel": str(tmp_path / "never" / "missing-dir.tok")},
        )
        (outcome,) = SweepScheduler(jobs=1, retries=1).run([spec])
        assert not outcome.ok and outcome.attempts == 2
        with pytest.raises(JobFailure, match="failed after 2 attempt"):
            outcome.value()

    def test_pool_survives_hard_worker_crash(self, tmp_path):
        """os._exit in a worker breaks the whole pool; the scheduler must
        rebuild it, charge the crash to the job and still finish everything."""
        crash = JobSpec(
            module="repro.exec.testing",
            func="crash_once",
            kwargs={"sentinel": str(tmp_path / "crash.tok"), "value": 3.0},
        )
        healthy = JobSpec(
            module="repro.exec.testing",
            func="sleepy",
            kwargs={"seconds": 0.0, "value": 1.0},
        )
        outcomes = SweepScheduler(jobs=2, retries=1).run([crash, healthy])
        assert [o.ok for o in outcomes] == [True, True]
        assert outcomes[0].value()["value"] == 3.0
        assert outcomes[1].value()["value"] == 1.0
        # The dead worker takes the whole pool with it, and the executor
        # can't say which in-flight job was the culprit — the scheduler
        # charges the attempt to whichever future surfaced the break.
        # Invariant: exactly one attempt was consumed by the crash.
        assert sum(o.attempts for o in outcomes) == 3

    def test_pool_timeout_kills_hung_job(self, tmp_path):
        hung = JobSpec(
            module="repro.exec.testing",
            func="sleepy",
            kwargs={"seconds": 60.0},
        )
        quick = JobSpec(
            module="repro.exec.testing",
            func="sleepy",
            kwargs={"seconds": 0.0, "value": 2.0},
        )
        scheduler = SweepScheduler(jobs=2, retries=0, timeout_s=1.5)
        outcomes = scheduler.run([hung, quick])
        assert not outcomes[0].ok
        assert "timeout" in outcomes[0].error.lower()
        assert outcomes[1].ok and outcomes[1].value()["value"] == 2.0


class TestCacheAndResume:
    def _specs(self):
        return plan_for("degradation", degradation, TINY_SWEEP).specs

    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = SweepScheduler(jobs=1, cache=cache).run(self._specs())
        assert all(o.ok and not o.cached for o in first)
        second = SweepScheduler(jobs=2, cache=cache).run(self._specs())
        assert all(o.cached for o in second)
        assert [o.value() for o in second] == [o.value() for o in first]

    def test_interrupted_sweep_resumes_from_manifest(self, tmp_path):
        """Finish half the sweep, 'crash', then resume: the finished half
        must come from the cache, only the missing half may run."""
        cache = ResultCache(tmp_path / "cache")
        specs = self._specs()
        with RunManifest(tmp_path / "run1.jsonl") as manifest:
            SweepScheduler(jobs=1, cache=cache, manifest=manifest).run(specs[:1])
        events = RunManifest.load(tmp_path / "run1.jsonl")
        done = RunManifest.completed_keys(events)
        assert done == {job_key(specs[0])}

        with RunManifest(tmp_path / "run2.jsonl") as manifest:
            outcomes = SweepScheduler(jobs=1, cache=cache, manifest=manifest).run(specs)
        assert [o.cached for o in outcomes] == [True, False]
        events = RunManifest.load(tmp_path / "run2.jsonl")
        kinds = [e["event"] for e in events]
        assert kinds.count("cache_hit") == 1
        assert kinds.count("finished") == 1
        # and now everything is complete
        assert RunManifest.completed_keys(events) == {job_key(s) for s in specs}

    def test_manifest_journals_the_whole_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with RunManifest(tmp_path / "run.jsonl") as manifest:
            SweepScheduler(jobs=2, cache=cache, manifest=manifest).run(self._specs())
        events = RunManifest.load(tmp_path / "run.jsonl")
        kinds = [e["event"] for e in events]
        assert kinds.count("submitted") == 2
        assert kinds.count("started") == 2
        assert kinds.count("finished") == 2
        finished = [e for e in events if e["event"] == "finished"]
        assert all(e["elapsed_s"] > 0 for e in finished)
        assert all(e["rss_kb"] > 0 for e in finished)
