"""Adversarial campaign engine: declarative attack x fault x churn
scenarios, compiled to orchestrator jobs, scored as per-system robustness
scorecards.

Layers (each importable on its own):

* :mod:`repro.campaigns.specs` — the frozen, canonically-hashable DSL
  (``AttackSpec``/``FaultSpec``/``ChurnSpec``/``TopologySpec``/
  ``WorkloadSpec`` -> ``ScenarioSpec`` -> ``Campaign``);
* :mod:`repro.campaigns.attach` — the one way to attach an attack to a
  registry-built system, protocol-level where the hooks exist and
  population-level elsewhere;
* :mod:`repro.campaigns.cells` — the picklable per-(scenario, system,
  seed) worker, with structured ``cell_error`` degradation;
* :mod:`repro.campaigns.scorecard` — metric extraction + aggregation;
* :mod:`repro.campaigns.catalogue` — curated named campaigns, each also
  a ``hirep-experiments`` id;
* :mod:`repro.campaigns.report` — a campaign's plan (its compiled cells,
  folded into a deterministic JSON/markdown report) and golden-file
  diffing (``hirep-obs diff``).
"""

from repro.campaigns.catalogue import (
    CAMPAIGNS,
    campaign_names,
    get_campaign,
    register_campaign,
)
from repro.campaigns.report import (
    build_report,
    diff_reports,
    load_report,
    render_markdown,
    run_campaign,
    write_report,
)
from repro.campaigns.scorecard import RobustnessScorecard
from repro.campaigns.specs import (
    ATTACK_KINDS,
    AttackSpec,
    Campaign,
    ChurnSpec,
    FaultSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    spec_hash,
)

__all__ = [
    "ATTACK_KINDS",
    "AttackSpec",
    "CAMPAIGNS",
    "Campaign",
    "ChurnSpec",
    "FaultSpec",
    "RobustnessScorecard",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "build_report",
    "campaign_names",
    "diff_reports",
    "get_campaign",
    "load_report",
    "register_campaign",
    "render_markdown",
    "run_campaign",
    "spec_hash",
    "write_report",
]
