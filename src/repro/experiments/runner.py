"""Command-line entry point: regenerate any table/figure, or run a campaign.

Usage::

    hirep-experiments --list
    hirep-experiments fig5 fig6 --scale small
    hirep-experiments all --scale paper --jobs 8
    hirep-experiments mini --out results/        # a robustness campaign
    hirep-experiments --resume .hirep-cache/runs/run-<id>.jsonl

``--scale small`` (default) runs CI-sized networks in seconds; ``--scale
paper`` uses the paper's 1000-peer configuration.  An id outside
:data:`EXPERIMENTS` names a campaign of :mod:`repro.campaigns.catalogue`
(sized by the catalogue at either scale); ``all`` is the experiments.

Every invocation goes through the :mod:`repro.exec` orchestrator: each
experiment — and each sweep cell / ``--replicate`` seed inside one —
becomes an independent job.  ``--jobs N`` fans the jobs across a process
pool (the default ``--jobs 1`` runs them serially, in-process, with
bit-identical results); the content-addressed cache makes re-runs of
unchanged jobs instant, and the JSONL run manifest makes an interrupted
sweep resumable with ``--resume``.  See ``docs/orchestration.md``.

Each id is a module and a :class:`~repro.exec.sweeps.SweepPlan`; the
plan's ``fold`` builds the result, the module's ``render(result)`` (else
``result.render()``) prints it, and its ``export(result, DIR)`` (else
:func:`~repro.experiments.export.export_result`) writes it under
``--out``.  Exit status: 0; 1 when a job failed or a campaign cell
degraded (its report is still written); 2 on a usage error.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from pathlib import Path
from types import ModuleType

from repro.exec.cache import ResultCache
from repro.exec.manifest import RunManifest
from repro.exec.progress import ProgressReporter, summary_line, summary_table
from repro.exec.scheduler import JobFailure, SweepScheduler
from repro.exec.sweeps import SweepPlan, job_error, plan_for, replication_plan
from repro.experiments import (
    ablations,
    baseline_comparison,
    churn_resilience,
    degradation,
    fig5_traffic,
    fig6_accuracy,
    fig7_malicious,
    fig8_response,
    report_models,
    robustness,
    table1_params,
    traffic_analysis,
    traffic_bound,
)
from repro.experiments.export import export_result
from repro.obs.clock import WallClock

__all__ = ["main", "EXPERIMENTS", "DEFAULT_CACHE_DIR", "DEFAULT_SEED"]

#: experiment id -> (module, small-scale kwargs, paper-scale kwargs)
EXPERIMENTS = {
    "table1": (table1_params, {}, {}),
    "fig5": (
        fig5_traffic,
        {"network_size": 300, "transactions": 60},
        {"network_size": 1000, "transactions": 300},
    ),
    "fig6": (
        fig6_accuracy,
        {"network_size": 300, "transactions": 150},
        {"network_size": 1000, "transactions": 400},
    ),
    "fig7": (
        fig7_malicious,
        {"network_size": 250, "train_transactions": 80, "measure_transactions": 40},
        {"network_size": 1000, "train_transactions": 200, "measure_transactions": 100},
    ),
    "fig8": (
        fig8_response,
        {"network_size": 300, "transactions": 60},
        {"network_size": 1000, "transactions": 200},
    ),
    "traffic_bound": (
        traffic_bound,
        {"network_size": 200, "transactions": 15},
        {"network_size": 300, "transactions": 40},
    ),
    "robustness": (
        robustness,
        {"network_size": 200},
        {"network_size": 250},
    ),
    "degradation": (
        degradation,
        {"network_size": 120, "transactions": 40},
        {"network_size": 250, "transactions": 120},
    ),
    "ablations": (
        ablations,
        {"network_size": 200},
        {"network_size": 250},
    ),
    "baselines": (
        baseline_comparison,
        {"network_size": 200, "transactions": 80},
        {"network_size": 300, "transactions": 150},
    ),
    "traffic_analysis": (
        traffic_analysis,
        {"network_size": 200, "transactions": 100},
        {"network_size": 250, "transactions": 200},
    ),
    "churn": (
        churn_resilience,
        {"network_size": 150, "transactions": 100},
        {"network_size": 250, "transactions": 200},
    ),
    "report_models": (
        report_models,
        {"network_size": 150, "transactions": 200, "providers": 8},
        {"network_size": 250, "transactions": 400},
    ),
}

#: seed of the archived runs; --seed overrides it.
DEFAULT_SEED = 2006

#: where results are cached when caching is on but --cache-dir wasn't given.
DEFAULT_CACHE_DIR = ".hirep-cache"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help="experiment or campaign ids (or 'all' experiments, the default); "
        "see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment, then campaign ids"
    )
    parser.add_argument(
        "--scale",
        choices=("small", "paper"),
        default=None,
        help="small = CI-sized (default), paper = the paper's parameters",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render each figure as an ASCII chart too",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write <experiment>.json and <experiment>.csv "
        "(a campaign: <name>.json and <name>.md) under DIR",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"override the experiment seed (default: the archived runs' {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--system",
        metavar="NAME",
        default=None,
        help="registry name of the hiREP execution backend (e.g. 'hirep-array' "
        "for the vectorized kernel; see repro.core.registry).  Applied to "
        "experiments whose run() accepts a 'system' parameter; others keep "
        "their built-in backend and are noted on stderr",
    )
    parser.add_argument(
        "--replicate",
        type=int,
        metavar="N",
        default=None,
        help="run each experiment over N seeds and print mean ± CI per scalar",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="run up to N jobs in parallel worker processes "
        "(default 1 = serial, bit-identical to the pre-orchestrator path)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed result cache; unchanged jobs replay instantly "
        f"(implied at {DEFAULT_CACHE_DIR!r} when --jobs > 1 or --resume)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache even when --jobs/--resume imply it",
    )
    parser.add_argument(
        "--manifest",
        metavar="FILE",
        default=None,
        help="write the JSONL run manifest here "
        "(default: <cache-dir>/runs/run-<stamp>.jsonl when caching)",
    )
    parser.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help="re-run the sweep recorded in a manifest; finished jobs are "
        "served from the cache instead of re-running",
    )
    parser.add_argument(
        "--retries",
        type=int,
        metavar="N",
        default=1,
        help="retry a crashed/failed job up to N more times (default 1)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="S",
        default=None,
        help="per-job timeout in seconds (enforced when --jobs > 1)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print the per-job timing table at the end of the run",
    )
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="capture a telemetry bundle per executed job under DIR "
        "(inspect with hirep-obs; see docs/observability.md)",
    )
    return parser


def _resolve(name: str, scale: str) -> tuple[ModuleType, dict]:
    """The module whose plan runs ``name``, and that plan's kwargs."""
    if name in EXPERIMENTS:
        module, small_kwargs, paper_kwargs = EXPERIMENTS[name]
        return module, dict(small_kwargs if scale == "small" else paper_kwargs)
    from repro.campaigns import report  # same layer: function-scoped (LAY001)

    return report, {"campaign": name}


def _parameters(module: ModuleType) -> set[str]:
    """What the module's ``plan()`` (or, lacking one, its ``run()``) takes."""
    entry = getattr(module, "plan", None) or module.run
    return set(inspect.signature(entry).parameters)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    from repro.campaigns.catalogue import campaign_names

    if args.list:
        for name in [*EXPERIMENTS, *campaign_names()]:
            print(name)
        return 0

    # --resume restores the recorded run configuration; flags given
    # explicitly on this invocation still win.
    resumed: dict = {}
    if args.resume:
        try:
            resumed = RunManifest.run_config(RunManifest.load(args.resume)) or {}
        except OSError as exc:
            print(f"cannot read manifest {args.resume}: {exc}", file=sys.stderr)
            return 2
    experiments = args.experiments or resumed.get("experiments") or ["all"]
    scale = args.scale or resumed.get("scale") or "small"
    seed = args.seed if args.seed is not None else resumed.get("seed")
    replicate = (
        args.replicate if args.replicate is not None else resumed.get("replicate")
    )
    jobs = args.jobs if args.jobs is not None else resumed.get("jobs") or 1
    system_name = args.system or resumed.get("system")
    out_dir = args.out or resumed.get("out")
    cache_dir = args.cache_dir or resumed.get("cache_dir")
    telemetry_dir = args.telemetry or resumed.get("telemetry")

    wanted = list(EXPERIMENTS) if "all" in experiments else list(experiments)
    known = {*EXPERIMENTS, *campaign_names()}
    unknown = [w for w in wanted if w not in known]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if replicate and out_dir:
        print("--replicate prints pooled scalars only; drop --out", file=sys.stderr)
        return 2

    # Caching is implied whenever it pays (parallel runs, resume) or the
    # user pointed at a directory; a bare serial run stays side-effect
    # free on the filesystem.
    if cache_dir is None and not args.no_cache and (jobs > 1 or args.resume):
        cache_dir = DEFAULT_CACHE_DIR
    cache = (
        ResultCache(cache_dir) if cache_dir is not None and not args.no_cache else None
    )

    manifest_path = args.manifest
    if manifest_path is None and cache is not None:
        # the manifest's file name is a wall-clock stamp, not simulated time
        stamp = time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}"  # lint: allow[DET002]
        manifest_path = str(Path(cache.root) / "runs" / f"run-{stamp}.jsonl")
    manifest = RunManifest(manifest_path) if manifest_path else None
    if manifest is not None:
        manifest.append(
            "run_start",
            experiments=wanted,
            scale=scale,
            seed=seed,
            replicate=replicate,
            jobs=jobs,
            system=system_name,
            out=out_dir,
            cache_dir=str(cache.root) if cache is not None else None,
            telemetry=telemetry_dir,
            resumed_from=args.resume,
        )

    # -- plan: every id becomes one or many jobs ---------------------------
    # (label, module whose hooks render/export the result, plan); pooled
    # replicates have no module hooks.
    plans: list[tuple[str, ModuleType | None, SweepPlan]] = []
    ignored: dict[str, list[str]] = {}
    for name in wanted:
        module, kwargs = _resolve(name, scale)
        params = _parameters(module)
        for flag, param, value in (
            ("--seed", "seed", seed),
            ("--replicate", "seed", replicate),
            ("--system", "system", system_name),
        ):
            if value is not None and param not in params:
                ignored.setdefault(f"{flag} {value}", []).append(name)
        if seed is not None and "seed" in params:
            kwargs["seed"] = seed
        if system_name is not None and "system" in params:
            kwargs["system"] = system_name
        if replicate and "seed" in params:
            base_seed = kwargs.pop("seed", DEFAULT_SEED)
            seeds = range(base_seed, base_seed + replicate)
            plan = replication_plan(name, module, seeds, kwargs)
            plans.append((f"{name} x{replicate}", None, plan))
        else:
            plans.append((name, module, plan_for(name, module, kwargs)))
    all_specs = [spec for _, _, plan in plans for spec in plan.specs]
    for flag, names in ignored.items():
        print(
            f"note: {flag} not supported by {', '.join(names)}; "
            "those run as built in",
            file=sys.stderr,
        )

    # -- execute -----------------------------------------------------------
    progress = ProgressReporter()
    scheduler = SweepScheduler(
        jobs=jobs,
        cache=cache,
        manifest=manifest,
        timeout_s=args.timeout,
        retries=args.retries,
        progress=progress,
        telemetry_dir=telemetry_dir,
    )
    wall_clock = WallClock()  # wall-time telemetry, not sim time
    try:
        outcomes = scheduler.run(all_specs)
    except KeyboardInterrupt:
        progress.close()
        if manifest is not None:
            manifest.append("run_end", interrupted=True)
            manifest.close()
            print(
                f"\ninterrupted — resume with: hirep-experiments --resume {manifest_path}",
                file=sys.stderr,
            )
        return 130
    wall_s = wall_clock.now / 1000.0
    progress.close()

    # -- fold + render + export, in submission order ----------------------
    status = 0
    offset = 0
    for label, module, plan in plans:
        outs = outcomes[offset : offset + len(plan.specs)]
        offset += len(plan.specs)
        elapsed = sum(o.elapsed_s for o in outs)
        try:
            result = plan.fold(outs)
        except JobFailure as exc:
            print(f"   {exc}", file=sys.stderr)
            print(f"   [{label} FAILED at scale={scale}]\n", file=sys.stderr)
            status = 1
            continue
        render = getattr(module, "render", None)
        if render is not None:
            print(render(result))
        else:
            print(result.render())
            if args.plot and getattr(result, "series", None):
                from repro.experiments.plotting import render_result_chart

                logy = label in ("fig5", "fig8")  # order-of-magnitude gaps
                print(render_result_chart(result, logy=logy))
        if out_dir:
            export = getattr(module, "export", export_result)
            for path in export(result, out_dir):
                print(f"   wrote {path}")
        # a fold that keeps failed cells (a campaign report) still fails the run
        degraded = [o.spec.display() for o in outs if job_error(o) is not None]
        if degraded:
            print(f"degraded cells: {', '.join(degraded)}", file=sys.stderr)
            status = 1
        print(f"   [{label} completed in {elapsed:.1f}s at scale={scale}]\n")

    # -- telemetry ---------------------------------------------------------
    if args.timings:
        print(summary_table(outcomes))
    print(summary_line(outcomes, wall_s=wall_s))
    if telemetry_dir:
        captured = sum(1 for o in outcomes if o.telemetry)
        print(f"telemetry: {captured} bundle(s) under {telemetry_dir}")
    if manifest is not None:
        manifest.append(
            "run_end",
            total=len(outcomes),
            cached=sum(1 for o in outcomes if o.cached),
            failed=sum(1 for o in outcomes if not o.ok),
            wall_s=round(wall_s, 3),
        )
        manifest.close()
        print(f"manifest: {manifest_path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
