"""Campaign plans + deterministic scorecard reports.

:func:`plan` compiles a catalogue campaign to orchestrator jobs, one per
cell; ``hirep-experiments <campaign>`` runs them through the same
:class:`~repro.exec.scheduler.SweepScheduler` as every experiment (cache,
retries, pool fan-out, telemetry all inherited).  The plan's fold,
:func:`build_report`, turns the cell payloads into a **report**: one
:class:`~repro.campaigns.scorecard.RobustnessScorecard` per (scenario,
system) pair, plus degradation deltas of every attacked card against the
same system's clean reference card.  :func:`render` and :func:`export`
are the runner's per-result hooks: the markdown on stdout, and
``<name>.json`` / ``<name>.md`` under ``--out``.

Reports are byte-deterministic on purpose: no timestamps, host paths,
elapsed times or cache statistics appear in the JSON — two runs of the
same campaign (on any ``PYTHONHASHSEED``, cached or not) must serialise
identically, which is what lets CI diff against a committed golden file
(``hirep-obs diff``, through :func:`diff_reports`).  Run-dependent facts
(cache hits, wall time) belong to the manifest and the runner's summary
line, not the report.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Any, Sequence

from repro.campaigns.catalogue import get_campaign
from repro.campaigns.scorecard import (
    RobustnessScorecard,
    aggregate_cells,
    degradation_deltas,
)
from repro.campaigns.specs import Campaign
from repro.exec.job import canonical_json
from repro.exec.scheduler import JobOutcome, SweepScheduler
from repro.exec.sweeps import SweepPlan

__all__ = [
    "CampaignPlan",
    "build_report",
    "campaign_plan",
    "diff_reports",
    "export",
    "load_report",
    "plan",
    "render",
    "render_markdown",
    "run_campaign",
    "write_report",
]


class CampaignPlan(SweepPlan):
    """A campaign's compiled cells, folded by :func:`build_report`.

    ``assemble`` reads the raw outcomes: a cell the scheduler gave up on
    degrades its scorecard instead of failing the plan.
    """

    def fold(self, outcomes: Sequence[JobOutcome]) -> dict:
        return self.assemble(list(outcomes))


def campaign_plan(campaign: Campaign) -> CampaignPlan:
    """One job per cell of ``campaign``, in :meth:`Campaign.cells` order."""
    return CampaignPlan(
        specs=campaign.compile(), assemble=partial(build_report, campaign)
    )


def plan(campaign: str) -> CampaignPlan:
    """The plan of the catalogue campaign registered as ``campaign``."""
    return campaign_plan(get_campaign(campaign))


def run_campaign(
    campaign: Campaign, **scheduler: Any
) -> tuple[dict, list[JobOutcome]]:
    """Run every campaign cell (``scheduler`` configures the
    :class:`~repro.exec.scheduler.SweepScheduler`) and build the report.

    Returns ``(report, outcomes)`` — outcomes ride along for callers that
    want run-dependent facts (cache hits, elapsed) the report excludes.
    """
    cells = campaign_plan(campaign)
    outcomes = SweepScheduler(**scheduler).run(cells.specs)
    return cells.fold(outcomes), outcomes


def _cell_payloads(campaign: Campaign, outcomes: list[JobOutcome]) -> list[dict]:
    """One cell payload per compiled job, scheduler failures included.

    A job the scheduler gave up on (worker died, retries exhausted) never
    produced a payload; it becomes a structured ``cell_error`` with stage
    ``job`` so the scorecard degrades instead of the report crashing.
    """
    cells: list[dict] = []
    for (scenario, system, seed), outcome in zip(campaign.cells(), outcomes):
        if outcome.ok:
            # Reattach the display name: compiled kwargs carry a fixed
            # placeholder so renaming a scenario keeps its cache key.
            cells.append({**outcome.value(), "scenario": scenario.name})
        else:
            cells.append(
                {
                    "scenario": scenario.name,
                    "scenario_hash": scenario.hash(),
                    "system": system,
                    "seed": seed,
                    "clean": scenario.is_clean(),
                    "scorecard": None,
                    "cell_error": {
                        "stage": "job",
                        "type": "JobFailure",
                        "message": outcome.error or "job failed",
                    },
                }
            )
    return cells


def build_report(campaign: Campaign, outcomes: list[JobOutcome]) -> dict:
    """Fold one outcome per compiled cell into the campaign report."""
    expected = len(campaign.cells())
    if len(outcomes) != expected:
        raise ValueError(
            f"campaign {campaign.name!r} compiled {expected} cells "
            f"but got {len(outcomes)} outcomes"
        )
    cells = _cell_payloads(campaign, outcomes)

    # Group cells per (scenario, system) in compile order: seeds are the
    # innermost loop, so each pair's cells are contiguous.
    per_pair: dict[tuple[str, str], list[dict]] = {}
    for cell in cells:
        per_pair.setdefault((cell["scenario"], cell["system"]), []).append(cell)

    cards: list[RobustnessScorecard] = []
    clean_by_system: dict[str, dict] = {}
    for scenario in campaign.scenarios:
        for system in campaign.systems:
            card = aggregate_cells(
                scenario.name, system, per_pair[(scenario.name, system)]
            )
            cards.append(card)
            if scenario.is_clean() and card.metrics and system not in clean_by_system:
                clean_by_system[system] = card.metrics

    for scenario in campaign.scenarios:
        if scenario.is_clean():
            continue
        for card in cards:
            if card.scenario != scenario.name:
                continue
            clean = clean_by_system.get(card.system)
            if clean and card.metrics:
                card.deltas = degradation_deltas(card.metrics, clean)

    degraded = sorted(
        {(c.scenario, c.system) for c in cards if c.degraded}
    )
    return {
        "campaign": campaign.name,
        "campaign_hash": campaign.hash(),
        "description": campaign.description,
        "systems": list(campaign.systems),
        "seeds": list(campaign.seeds),
        "scenarios": [
            {"name": s.name, "hash": s.hash(), "clean": s.is_clean()}
            for s in campaign.scenarios
        ],
        "scorecards": [c.to_dict() for c in cards],
        "summary": {
            "cells": expected,
            "cells_ok": sum(c.cells_ok for c in cards),
            "degraded_pairs": [list(p) for p in degraded],
        },
    }


# -- serialisation -----------------------------------------------------------


def write_report(report: dict, path: str | Path) -> Path:
    """Canonical-JSON the report to ``path`` (parent dirs created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(report) + "\n", encoding="utf-8")
    return path


def load_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def export(report: dict, out_dir: str | Path) -> list[Path]:
    """``<campaign>.json`` (canonical) and ``<campaign>.md`` under ``out_dir``."""
    name = report["campaign"]
    written = write_report(report, Path(out_dir) / f"{name}.json")
    md = written.with_name(f"{name}.md")
    md.write_text(render_markdown(report), encoding="utf-8")
    return [written, md]


# -- rendering ---------------------------------------------------------------

_COLUMNS = (
    ("mse", "MSE", "{:.4f}"),
    ("detect_tx", "detect@tx", "{:.1f}"),
    ("success_rate", "success", "{:.2f}"),
    ("mean_response_ms", "rt(ms)", "{:.1f}"),
    ("msgs_per_tx", "msgs/tx", "{:.1f}"),
    ("retries_per_tx", "retries/tx", "{:.2f}"),
    ("drops_per_tx", "drops/tx", "{:.2f}"),
    ("churn_events_per_tx", "churn/tx", "{:.2f}"),
)


def _fmt(metrics: dict, key: str, fmt: str) -> str:
    value = metrics.get(key)
    if value is None:
        return "—"
    return fmt.format(value)


def render_markdown(report: dict) -> str:
    """The report as a deterministic markdown scorecard table."""
    lines = [f"# Campaign `{report['campaign']}`", ""]
    if report.get("description"):
        lines += [report["description"], ""]
    lines += [
        f"- hash: `{report['campaign_hash'][:16]}`",
        f"- systems: {', '.join(report['systems'])}",
        f"- seeds: {', '.join(str(s) for s in report['seeds'])}",
        f"- cells: {report['summary']['cells_ok']}/{report['summary']['cells']} ok",
        "",
        "| scenario | system | level | "
        + " | ".join(title for _, title, _ in _COLUMNS)
        + " | ΔMSE |",
        "|" + "---|" * (len(_COLUMNS) + 4),
    ]
    for card in report["scorecards"]:
        metrics = card["metrics"]
        if not metrics:
            row = [card["scenario"], card["system"], "failed"]
            row += ["—"] * (len(_COLUMNS) + 1)
        else:
            row = [card["scenario"], card["system"], metrics.get("attack_level", "?")]
            row += [_fmt(metrics, key, fmt) for key, _, fmt in _COLUMNS]
            deltas = card.get("deltas") or {}
            row.append(
                "—" if "mse_delta" not in deltas else f"{deltas['mse_delta']:+.4f}"
            )
        marker = " ⚠" if card["degraded"] else ""
        row[0] += marker
        lines.append("| " + " | ".join(row) + " |")
    degraded = report["summary"]["degraded_pairs"]
    if degraded:
        lines += ["", "## Degraded cells", ""]
        for card in report["scorecards"]:
            if not card["degraded"]:
                continue
            for err in card["errors"]:
                lines.append(
                    f"- `{card['scenario']}`/`{card['system']}` seed {err['seed']}: "
                    f"[{err['stage']}] {err['type']}: {err['message']}"
                )
    lines.append("")
    return "\n".join(lines)


#: the runner's per-result hook
render = render_markdown


# -- diffing -----------------------------------------------------------------


def diff_reports(a: dict, b: dict) -> list[str]:
    """Human-readable differences between two reports (empty = identical).

    Values compare exactly: reports are byte-deterministic.
    """
    diffs: list[str] = []
    for key in ("campaign", "campaign_hash", "systems", "seeds"):
        if a.get(key) != b.get(key):
            diffs.append(f"{key}: {a.get(key)!r} != {b.get(key)!r}")

    cards_a = {(c["scenario"], c["system"]): c for c in a.get("scorecards", [])}
    cards_b = {(c["scenario"], c["system"]): c for c in b.get("scorecards", [])}
    for pair in sorted(set(cards_a) | set(cards_b)):
        label = f"{pair[0]}/{pair[1]}"
        if pair not in cards_a:
            diffs.append(f"{label}: only in second report")
            continue
        if pair not in cards_b:
            diffs.append(f"{label}: only in first report")
            continue
        ca, cb = cards_a[pair], cards_b[pair]
        if ca["degraded"] != cb["degraded"]:
            diffs.append(f"{label}: degraded {ca['degraded']} != {cb['degraded']}")
        for section in ("metrics", "deltas"):
            ma, mb = ca.get(section) or {}, cb.get(section) or {}
            for key in sorted(set(ma) | set(mb)):
                va, vb = ma.get(key), mb.get(key)
                if va != vb:
                    diffs.append(f"{label}: {section}.{key} {va!r} != {vb!r}")
    return diffs
