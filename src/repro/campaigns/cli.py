"""``hirep-campaign`` — plan, run, render and diff robustness campaigns.

Usage::

    hirep-campaign list                      # catalogue with cell counts
    hirep-campaign plan mini                 # compiled cells + job keys
    hirep-campaign run mini --out out/mini   # run; writes report.json/.md
    hirep-campaign report out/mini/report.json
    hirep-campaign diff golden.json out/mini/report.json --exit-code

``run`` separates deterministic output from run-dependent chatter: the
report (JSON and markdown) contains no timestamps, paths, cache counts or
elapsed times — two runs of the same campaign write byte-identical files,
which is what ``diff --exit-code`` against a committed golden report
checks in CI.  Cache hits and wall time go to stderr only.

Exit codes: ``0`` success; ``1`` reports differ (``diff --exit-code``);
``2`` degraded cells under ``run --strict``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.campaigns.catalogue import campaign_names, get_campaign
from repro.campaigns.report import (
    diff_reports,
    load_report,
    render_markdown,
    run_campaign,
    write_report,
)
from repro.exec.cache import ResultCache
from repro.exec.job import job_key
from repro.exec.manifest import RunManifest

__all__ = ["main"]


class _StderrProgress:
    """Per-cell progress lines on stderr (never in deterministic output)."""

    def update(self, outcome, done: int, total: int) -> None:
        status = "cached" if outcome.cached else ("ok" if outcome.ok else "FAILED")
        print(
            f"[{done}/{total}] {outcome.spec.display()}: {status}",
            file=sys.stderr,
            flush=True,
        )


def _resolve(args: argparse.Namespace):
    campaign = get_campaign(args.campaign)
    if getattr(args, "systems", None):
        campaign = campaign.with_(systems=tuple(args.systems.split(",")))
    if getattr(args, "seeds", None):
        campaign = campaign.with_(
            seeds=tuple(int(s) for s in args.seeds.split(","))
        )
    return campaign


# -- list --------------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    names = campaign_names()
    width = max(len(n) for n in names)
    for name in names:
        campaign = get_campaign(name)
        cells = len(campaign.cells())
        print(
            f"{name:<{width}}  {len(campaign.scenarios)} scenario(s) x "
            f"{len(campaign.systems)} system(s) x {len(campaign.seeds)} seed(s)"
            f" = {cells} cells"
        )
        if args.verbose and campaign.description:
            print(f"{'':<{width}}  {campaign.description}")
    return 0


# -- plan --------------------------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> int:
    campaign = _resolve(args)
    if args.json:
        from repro.exec.job import canonical_json

        print(canonical_json(campaign.to_dict()))
        return 0
    print(f"campaign {campaign.name} ({campaign.hash()[:16]})")
    if campaign.description:
        print(f"  {campaign.description}")
    for spec in campaign.compile():
        print(f"  {job_key(spec)[:16]}  {spec.display()}")
    return 0


# -- run ---------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    campaign = _resolve(args)
    out = Path(args.out or f"results/campaigns/{campaign.name}")
    out.mkdir(parents=True, exist_ok=True)

    cache = None if args.no_cache else ResultCache(args.cache or out / "cache")
    progress = _StderrProgress() if args.progress else None
    # wall time goes through the one sanctioned clock (DET002): elapsed time
    # is stderr-only operator telemetry, never part of the report artifact
    from repro.obs.clock import WallClock

    stopwatch = WallClock()
    with RunManifest(out / "manifest.jsonl") as manifest:
        manifest.append(
            "campaign",
            name=campaign.name,
            hash=campaign.hash(),
            cells=len(campaign.cells()),
        )
        report, outcomes = run_campaign(
            campaign,
            jobs=args.jobs,
            cache=cache,
            manifest=manifest,
            timeout_s=args.timeout,
            retries=args.retries,
            progress=progress,
            telemetry_dir=args.telemetry,
        )
    elapsed = stopwatch.now / 1000.0

    report_path = write_report(report, out / "report.json")
    md = render_markdown(report)
    (out / "report.md").write_text(md, encoding="utf-8")
    print(md, end="")

    cached = sum(1 for o in outcomes if o.cached)
    failed = sum(1 for o in outcomes if not o.ok)
    print(
        f"{len(outcomes)} cells ({cached} cached, {failed} failed) "
        f"in {elapsed:.1f}s -> {report_path}",
        file=sys.stderr,
    )
    degraded = report["summary"]["degraded_pairs"]
    if degraded:
        pairs = ", ".join("/".join(p) for p in degraded)
        print(f"degraded cells: {pairs}", file=sys.stderr)
        if args.strict:
            return 2
    return 0


# -- report ------------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    print(render_markdown(load_report(args.report)), end="")
    return 0


# -- diff --------------------------------------------------------------------


def cmd_diff(args: argparse.Namespace) -> int:
    a = load_report(args.report_a)
    b = load_report(args.report_b)
    diffs = diff_reports(a, b, tolerance=args.tolerance)
    if not diffs:
        print("reports are identical")
        return 0
    for line in diffs:
        print(line)
    return 1 if args.exit_code else 0


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hirep-campaign",
        description="adversarial robustness campaigns with per-system scorecards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="the campaign catalogue")
    p_list.add_argument("-v", "--verbose", action="store_true", help="descriptions too")
    p_list.set_defaults(func=cmd_list)

    def add_selection(p: argparse.ArgumentParser) -> None:
        p.add_argument("campaign", help="catalogue campaign name")
        p.add_argument("--systems", help="override systems (comma-separated)")
        p.add_argument("--seeds", help="override seeds (comma-separated)")

    p_plan = sub.add_parser("plan", help="show the compiled cells")
    add_selection(p_plan)
    p_plan.add_argument("--json", action="store_true", help="canonical campaign JSON")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="run a campaign and write its report")
    add_selection(p_run)
    p_run.add_argument("--out", help="output directory (default results/campaigns/NAME)")
    p_run.add_argument("-j", "--jobs", type=int, default=1, help="worker processes")
    p_run.add_argument("--cache", help="result cache directory (default OUT/cache)")
    p_run.add_argument("--no-cache", action="store_true", help="disable the result cache")
    p_run.add_argument("--timeout", type=float, help="per-cell timeout (s, pool mode)")
    p_run.add_argument("--retries", type=int, default=1, help="retries per failed cell")
    p_run.add_argument("--telemetry", help="capture per-cell telemetry bundles here")
    p_run.add_argument("--progress", action="store_true", help="per-cell stderr progress")
    p_run.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when any cell is degraded (structured cell_error)",
    )
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="render a saved report as markdown")
    p_rep.add_argument("report", help="report.json path")
    p_rep.set_defaults(func=cmd_report)

    p_diff = sub.add_parser("diff", help="compare two saved reports")
    p_diff.add_argument("report_a", help="baseline report.json (e.g. the golden file)")
    p_diff.add_argument("report_b", help="comparison report.json")
    p_diff.add_argument(
        "--tolerance", type=float, default=0.0, help="absolute float drift allowed"
    )
    p_diff.add_argument(
        "--exit-code", action="store_true", help="exit 1 when the reports differ"
    )
    p_diff.set_defaults(func=cmd_diff)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
