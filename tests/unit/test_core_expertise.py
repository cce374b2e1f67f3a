"""Unit tests for the expertise EWMA (§3.4.3)."""

import pytest

from repro.core.expertise import ExpertiseTracker, consistent
from repro.errors import ConfigError


class TestConsistent:
    @pytest.mark.parametrize(
        "evaluation,outcome,expected",
        [
            (0.8, 1.0, True),
            (0.2, 0.0, True),
            (0.8, 0.0, False),
            (0.2, 1.0, False),
            (0.5, 1.0, True),   # boundary: 0.5 counts as trusting
            (0.5, 0.0, False),
        ],
    )
    def test_cases(self, evaluation, outcome, expected):
        assert consistent(evaluation, outcome) is expected


class TestExpertiseTracker:
    def test_initial_value_one(self):
        assert ExpertiseTracker(alpha=0.5).value == 1.0

    def test_consistent_update_keeps_high(self):
        t = ExpertiseTracker(alpha=0.5)
        t.update(0.8, 1.0)
        assert t.value == 1.0

    def test_inconsistent_update_halves_at_alpha_half(self):
        t = ExpertiseTracker(alpha=0.5)
        assert t.update(0.2, 1.0) == pytest.approx(0.5)
        assert t.update(0.2, 1.0) == pytest.approx(0.25)

    def test_ewma_formula(self):
        t = ExpertiseTracker(alpha=0.3, value=0.6)
        # A_c = 1: 0.3*1 + 0.7*0.6 = 0.72
        assert t.update(0.9, 1.0) == pytest.approx(0.72)

    def test_updates_counter_and_confidence(self):
        t = ExpertiseTracker(alpha=0.5)
        assert t.confidence == 0.0
        t.update(0.8, 1.0)
        assert t.updates == 1
        assert t.confidence == pytest.approx(0.5)
        t.update(0.8, 1.0)
        assert t.confidence == pytest.approx(2 / 3)

    def test_below_threshold(self):
        t = ExpertiseTracker(alpha=0.5, value=0.39)
        assert t.below(0.4)
        assert not t.below(0.39)

    def test_alpha_validation(self):
        with pytest.raises(ConfigError):
            ExpertiseTracker(alpha=0.0)
        with pytest.raises(ConfigError):
            ExpertiseTracker(alpha=1.0)

    def test_value_validation(self):
        with pytest.raises(ConfigError):
            ExpertiseTracker(alpha=0.5, value=1.5)

    def test_steps_to_evict_closed_form(self):
        t = ExpertiseTracker(alpha=0.5, value=1.0)
        # 1.0 -> 0.5 -> 0.25: two steps to fall below 0.4.
        assert t.steps_to_evict(0.4) == 2
        assert t.steps_to_evict(0.6) == 1
        assert ExpertiseTracker(alpha=0.5, value=0.3).steps_to_evict(0.4) == 0

    def test_steps_to_evict_faster_with_higher_threshold(self):
        """Fig. 6's claim in miniature: higher θ evicts sooner."""
        for alpha in (0.2, 0.5, 0.8):
            t = lambda: ExpertiseTracker(alpha=alpha, value=1.0)
            assert t().steps_to_evict(0.8) <= t().steps_to_evict(0.6) <= t().steps_to_evict(0.4)

    def test_steps_to_evict_zero_threshold_never(self):
        assert ExpertiseTracker(alpha=0.5).steps_to_evict(0.0) == -1
