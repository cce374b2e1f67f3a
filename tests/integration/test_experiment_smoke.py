"""Smoke: every experiment module runs and renders at tiny scale.

The claim-level assertions live in test_experiments_small.py; this suite
just proves that every registered experiment executes, renders, charts and
exports without error — including the ones too slow to claim-check twice.
"""

import pytest

from repro.experiments import (
    baseline_comparison,
    report_models,
    traffic_analysis,
)
from repro.experiments.export import export_result
from repro.experiments.plotting import render_result_chart
from repro.experiments.runner import EXPERIMENTS, main


@pytest.fixture(scope="module")
def tiny_results():
    return {
        "baselines": baseline_comparison.run(network_size=120, transactions=30),
        "traffic_analysis": traffic_analysis.run(
            network_size=120, transactions=60, relay_counts=(0, 3)
        ),
        "report_models": report_models.run(
            network_size=100, transactions=80, providers=5
        ),
    }


def test_all_scalars_finite_or_flagged(tiny_results):

    for name, result in tiny_results.items():
        for key, value in result.scalars.items():
            assert isinstance(value, (int, float)), f"{name}.{key}"


def test_all_render(tiny_results):
    for result in tiny_results.values():
        if result.series:
            assert result.experiment_id in render_result_chart(result)


def test_all_export(tiny_results, tmp_path):
    for result in tiny_results.values():
        paths = export_result(result, tmp_path)
        assert all(p.exists() for p in paths)


def test_baselines_table_renders(tiny_results):
    text = baseline_comparison.render(tiny_results["baselines"])
    assert "hiREP" in text and "EigenTrust" in text


def test_runner_registry_covers_every_figure():
    """Every paper artifact has a registered regenerator."""
    for required in ("table1", "fig5", "fig6", "fig7", "fig8"):
        assert required in EXPERIMENTS


def test_runner_plot_flag(capsys):
    assert main(["traffic_bound", "--plot", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "traffic_bound" in out or "analysis41" in out
