"""Scorecard math: detection, success, aggregation, deltas."""

from __future__ import annotations

import math

from repro.campaigns.scorecard import (
    RobustnessScorecard,
    aggregate_cells,
    cell_metrics,
    degradation_deltas,
    success_rate,
    time_to_detect,
)
from repro.net.faults import FaultStats
from repro.sim.metrics import MessageCounter, MSETracker, ResponseTimeTracker


class _Outcome:
    def __init__(self, answered=0, asked=0, voters=0, estimate=float("nan")):
        self.answered = answered
        self.asked = asked
        self.voters = voters
        self.estimate = estimate


class TestTimeToDetect:
    def test_detects_earliest_sustained_index(self):
        # 5 noisy values, then quiet: windows starting at 5 stay under.
        sq = [1.0] * 5 + [0.0] * 20
        assert time_to_detect(sq, threshold=0.05, window=5) == 5

    def test_never_detected(self):
        assert time_to_detect([1.0] * 30, threshold=0.05, window=5) is None

    def test_short_runs_undetectable(self):
        assert time_to_detect([0.0, 0.0], threshold=0.05, window=5) is None
        assert time_to_detect([], threshold=0.05, window=5) is None

    def test_lucky_window_mid_oscillation_does_not_count(self):
        # quiet stretch, then a late burst: detection must be None because
        # the final windows are loud.
        sq = [0.0] * 20 + [1.0] * 5
        assert time_to_detect(sq, threshold=0.05, window=5) is None

    def test_immediately_quiet(self):
        assert time_to_detect([0.01] * 10, threshold=0.05, window=5) == 0


class TestSuccessRate:
    def test_counts_answered_and_voters(self):
        outcomes = [
            _Outcome(answered=3, asked=5),
            _Outcome(voters=2),
            _Outcome(asked=5),  # asked but nobody answered: a failure
        ]
        assert success_rate(outcomes) == 2 / 3

    def test_local_only_system_uses_estimate(self):
        assert success_rate([_Outcome(estimate=0.7)]) == 1.0
        assert success_rate([_Outcome()]) == 0.0

    def test_empty(self):
        assert success_rate([]) == 0.0


def _cell(seed, mse=0.1, error=None, **metrics):
    if error is not None:
        return {"seed": seed, "scorecard": None, "cell_error": error}
    card = {
        "attack_level": "protocol",
        "transactions": 20,
        "mse": mse,
        "detect_tx": metrics.get("detect_tx"),
        "mean_response_ms": metrics.get("mean_response_ms"),
        "success_rate": metrics.get("success_rate", 1.0),
        "msgs_per_tx": metrics.get("msgs_per_tx", 100.0),
        "retries_per_tx": 0.0,
        "drops_per_tx": 0.0,
        "churn_events_per_tx": 0.0,
    }
    return {"seed": seed, "scorecard": card, "cell_error": None}


class TestAggregation:
    def test_seed_average(self):
        card = aggregate_cells(
            "s", "hirep", [_cell(1, mse=0.1), _cell(2, mse=0.3)]
        )
        assert card.cells_ok == 2
        assert not card.degraded
        assert math.isclose(card.metrics["mse"], 0.2)
        assert card.seeds == [1, 2]

    def test_detect_tx_averages_detected_seeds_only(self):
        card = aggregate_cells(
            "s", "hirep", [_cell(1, detect_tx=10), _cell(2, detect_tx=None)]
        )
        assert card.metrics["detect_tx"] == 10.0
        assert card.metrics["detect_rate"] == 0.5

    def test_no_seed_detected(self):
        card = aggregate_cells("s", "hirep", [_cell(1), _cell(2)])
        assert card.metrics["detect_tx"] is None
        assert card.metrics["detect_rate"] == 0.0

    def test_cell_error_degrades_but_keeps_other_seeds(self):
        err = {"stage": "attach", "type": "ConfigError", "message": "boom"}
        card = aggregate_cells("s", "hirep", [_cell(1, mse=0.4), _cell(2, error=err)])
        assert card.degraded
        assert card.cells_ok == 1
        assert card.metrics["mse"] == 0.4
        assert card.errors == [{"seed": 2, **err}]

    def test_all_cells_failed(self):
        err = {"stage": "run", "type": "RuntimeError", "message": "x"}
        card = aggregate_cells("s", "hirep", [_cell(1, error=err)])
        assert card.degraded and card.cells_ok == 0 and card.metrics == {}

    def test_round_trip(self):
        card = aggregate_cells("s", "hirep", [_cell(1), _cell(2)])
        card.deltas = {"mse_delta": 0.05}
        again = RobustnessScorecard.from_dict(card.to_dict())
        assert again == card


class _System:
    """What cell_metrics reads off a finished run, and nothing else."""

    def __init__(self, by_category):
        self.mse = MSETracker()
        self.response_times = ResponseTimeTracker()
        self.counter = MessageCounter()
        for category, n in by_category.items():
            self.counter.count(category, n)
        self.outcomes = [_Outcome(answered=1, asked=1)] * 4
        for _ in self.outcomes:
            self.mse.record(0.5, 0.4)


class _Plane:
    def __init__(self, drops):
        self.stats = FaultStats()
        for _ in range(drops):
            self.stats.record_drop("message_loss", "trust_query")


class TestCellMetrics:
    def test_maintenance_is_discovery_replies_and_control_per_tx(self):
        system = _System(
            {
                "agent_discovery": 6,
                "agent_discovery_reply": 3,
                "control": 1,
                "trust_query": 40,
                "transaction_report": 9,
            }
        )
        metrics = cell_metrics(system, 4)
        assert metrics["maintenance_msgs_per_tx"] == 10 / 4
        assert metrics["msgs_per_tx"] == 59 / 4
        assert metrics["fault_stats"] is None

    def test_fault_stats_are_the_planes(self):
        plane = _Plane(drops=3)
        metrics = cell_metrics(_System({}), 4, fault_plane=plane)
        assert metrics["fault_stats"] == plane.stats.as_dict()
        assert metrics["fault_stats"]["drops[trust_query]"] == 3
        assert metrics["drops_per_tx"] == 3 / 4
        assert metrics["maintenance_msgs_per_tx"] == 0.0

    def test_per_cell_readings_are_not_averaged_into_cards(self):
        cells = []
        for seed, plane in ((1, None), (2, _Plane(drops=2))):
            card = cell_metrics(_System({"control": seed}), 4, fault_plane=plane)
            cells.append({"seed": seed, "scorecard": card, "cell_error": None})
        metrics = aggregate_cells("s", "hirep", cells).metrics
        assert "maintenance_msgs_per_tx" not in metrics
        assert "fault_stats" not in metrics


class TestDeltas:
    def test_attacked_minus_clean(self):
        attacked = {"mse": 0.3, "success_rate": 0.8, "msgs_per_tx": 120.0, "retries_per_tx": 1.0}
        clean = {"mse": 0.1, "success_rate": 1.0, "msgs_per_tx": 100.0, "retries_per_tx": 0.0}
        deltas = degradation_deltas(attacked, clean)
        assert math.isclose(deltas["mse_delta"], 0.2)
        assert math.isclose(deltas["success_rate_delta"], -0.2)
        assert math.isclose(deltas["msgs_per_tx_delta"], 20.0)
        assert math.isclose(deltas["retries_per_tx_delta"], 1.0)

    def test_missing_keys_skipped(self):
        assert degradation_deltas({"mse": 0.1}, {}) == {}
