"""The plan/assemble protocol: how experiments fan out into jobs.

An experiment module may define::

    def plan(**kwargs) -> SweepPlan

returning the independent jobs its sweep decomposes into plus an
``assemble`` callable that folds the per-job values back into the single
:class:`~repro.experiments.common.ExperimentResult`.  Such a module's
``run()`` is ``plan(...).run()`` — the jobs through
``SweepScheduler(jobs=1)``, then :meth:`SweepPlan.fold` — so a library
call and ``hirep-experiments --jobs 1`` run the same code, and
``SweepScheduler(jobs=N)`` is the one way to go parallel.  Modules
without a ``plan`` are scheduled as one job over their ``run()``.
A plan that must fold failed jobs too (a campaign report degrades a
failed cell instead of failing) overrides :meth:`SweepPlan.fold`.

:func:`plan_for` resolves a registry entry either way, and
:func:`replication_plan` fans one experiment's ``--replicate`` seeds out
as sibling jobs whose results pool into a
:class:`~repro.experiments.replication.Replication`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from types import ModuleType
from typing import Any, Callable, Sequence

from repro.exec.job import JobSpec
from repro.exec.scheduler import JobFailure, JobOutcome, SweepScheduler

__all__ = ["SweepPlan", "job_error", "job_values", "plan_for", "replication_plan"]


def job_error(outcome: JobOutcome) -> str | None:
    """Why a job left no usable value, or ``None`` when it did.

    That is the scheduler's error for a job it gave up on, or the
    structured ``cell_error`` of a campaign cell that caught its own
    failure (see :mod:`repro.campaigns.cells`).
    """
    if not outcome.ok:
        return outcome.error or "job failed"
    value = outcome.value()
    error = value.get("cell_error") if isinstance(value, dict) else None
    if error is None:
        return None
    return f"[{error['stage']}] {error['type']}: {error['message']}"


def job_values(outcomes: Sequence[JobOutcome]) -> list[Any]:
    """Each job's value, in order; the first failed job raises
    :class:`~repro.exec.scheduler.JobFailure` naming it.

    A campaign cell with a ``cell_error`` counts as failed here: an
    experiment assembled without it would be missing a point.
    """
    for outcome in outcomes:
        error = job_error(outcome)
        if error is not None:
            raise JobFailure(replace(outcome, payload=None, error=error))
    return [outcome.value() for outcome in outcomes]


@dataclass
class SweepPlan:
    """Independent jobs + the fold that rebuilds the experiment result."""

    specs: list[JobSpec]
    assemble: Callable[[list[Any]], Any]

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a sweep plan needs at least one job")

    def fold(self, outcomes: Sequence[JobOutcome]) -> Any:
        """The result of one outcome per spec; a failed job raises
        :class:`~repro.exec.scheduler.JobFailure`."""
        return self.assemble(job_values(outcomes))

    def run(self) -> Any:
        """Run every job in-process, in order, and fold the result.

        A failing job is not retried (in-process it would fail the same
        way).
        """
        return self.fold(SweepScheduler(jobs=1, retries=0).run(self.specs))


def _single(values: list[Any]) -> Any:
    return values[0]


def _assemble_replication(results: list[Any], seeds: list[int]) -> Any:
    """Pool per-seed results into a ``Replication``.

    Module-level (bound with :func:`functools.partial`) so the assemble
    callable pickles and stays inside the fingerprinted module — see lint
    rule EXC001.
    """
    from repro.experiments.replication import Replication

    return Replication.from_results(results, seeds)


def plan_for(name: str, module: ModuleType, kwargs: dict) -> SweepPlan:
    """The module's own ``plan(**kwargs)`` if it defines one, else one job."""
    planner = getattr(module, "plan", None)
    if planner is not None:
        return planner(**kwargs)
    spec = JobSpec(module=module.__name__, kwargs=dict(kwargs), label=name)
    return SweepPlan(specs=[spec], assemble=_single)


def replication_plan(
    name: str, module: ModuleType, seeds: Sequence[int], kwargs: dict
) -> SweepPlan:
    """One job per seed; assembles into a ``Replication``."""
    seeds = [int(s) for s in seeds]
    specs = [
        JobSpec(
            module=module.__name__,
            kwargs={**kwargs, "seed": seed},
            label=f"{name}[seed={seed}]",
        )
        for seed in seeds
    ]
    return SweepPlan(
        specs=specs,
        assemble=partial(_assemble_replication, seeds=seeds),
    )
