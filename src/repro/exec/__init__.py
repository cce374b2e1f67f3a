"""repro.exec — parallel experiment orchestration.

The experiment layer used to be a for-loop: every figure, every
``--replicate`` seed and every sweep cell ran serially in one process.
This package turns an experiment invocation into data — a pure, picklable
:class:`~repro.exec.job.JobSpec` — and provides the machinery to execute
many of them well:

* :mod:`repro.exec.job` — canonical job encoding + content hash;
* :mod:`repro.exec.cache` — content-addressed on-disk result cache
  (unchanged jobs are instant replays);
* :mod:`repro.exec.worker` — the picklable job entry point that runs in
  worker processes and encodes results as JSON payloads;
* :mod:`repro.exec.scheduler` — serial or process-pool execution with
  per-job timeout, retry-on-crash and deterministic result ordering;
* :mod:`repro.exec.manifest` — a JSONL journal of every job event that
  makes interrupted sweeps resumable;
* :mod:`repro.exec.progress` — live counter line + final timing table;
* :mod:`repro.exec.sweeps` — the plan/assemble protocol experiment
  modules use to fan a sweep out into independent jobs (``SweepPlan.run()``
  is the in-process run every planned module's ``run()`` is).

Quick start::

    from repro.exec import JobSpec, ResultCache, SweepScheduler

    specs = [JobSpec(module="repro.experiments.fig5_traffic",
                     kwargs={"network_size": 300, "transactions": 60, "seed": s},
                     label=f"fig5[seed={s}]")
             for s in range(2006, 2011)]
    scheduler = SweepScheduler(jobs=4, cache=ResultCache(".hirep-cache"))
    outcomes = scheduler.run(specs)          # deterministic order
    results = [o.value() for o in outcomes]  # ExperimentResult objects
"""

from repro.exec.cache import ResultCache
from repro.exec.job import JobSpec, canonical_json, code_fingerprint, job_key
from repro.exec.manifest import RunManifest
from repro.exec.progress import ProgressReporter, summary_line, summary_table
from repro.exec.scheduler import JobFailure, JobOutcome, SweepScheduler
from repro.exec.sweeps import SweepPlan, job_values, plan_for, replication_plan
from repro.exec.worker import decode_payload, encode_value, execute_spec

__all__ = [
    "JobSpec",
    "canonical_json",
    "code_fingerprint",
    "job_key",
    "ResultCache",
    "RunManifest",
    "ProgressReporter",
    "summary_line",
    "summary_table",
    "JobFailure",
    "JobOutcome",
    "SweepScheduler",
    "SweepPlan",
    "job_values",
    "plan_for",
    "replication_plan",
    "decode_payload",
    "encode_value",
    "execute_spec",
]
