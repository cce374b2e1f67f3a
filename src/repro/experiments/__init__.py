"""Experiment harness: one module per reproduced table/figure.

================  =======================================================
id                regenerates
================  =======================================================
table1            Table 1 (simulation parameters, with provenance)
fig5              Fig. 5 (trust-query traffic, hiREP vs voting-2/3/4)
fig6              Fig. 6 (MSE vs transactions, voting vs hirep-4/6/8)
fig7              Fig. 7 (MSE vs attacker ratio)
fig8              Fig. 8 (cumulative response time, voting vs hirep-10/7/5)
traffic_bound     §4.1 analytic bound 2c(o_i+o_j) vs measurement
robustness        §4.2 attack-resistance measurements (extension)
degradation       loss-rate × crash-fraction graceful-degradation sweep (ext.)
ablations         design-choice ablations (extension)
baselines         hiREP vs the baseline reputation systems (extension)
traffic_analysis  onion anonymity under traffic analysis (extension)
churn             accuracy and maintenance cost under churn (extension)
report_models     alternative report trust models (extension)
================  =======================================================
"""

from repro.experiments import (
    ablations,
    baseline_comparison,
    churn_resilience,
    degradation,
    fig5_traffic,
    fig6_accuracy,
    fig7_malicious,
    fig8_response,
    replication,
    report_models,
    robustness,
    table1_params,
    traffic_analysis,
    traffic_bound,
)
from repro.experiments.common import ExperimentResult, Series, format_table

__all__ = [
    "ablations",
    "baseline_comparison",
    "churn_resilience",
    "degradation",
    "fig5_traffic",
    "fig6_accuracy",
    "fig7_malicious",
    "fig8_response",
    "replication",
    "report_models",
    "robustness",
    "table1_params",
    "traffic_analysis",
    "traffic_bound",
    "ExperimentResult",
    "Series",
    "format_table",
]
