"""Post-run analysis: convergence detection (``repro.sim.stats``), the
measurement behind Fig. 6's "trained after about 100 transactions"."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sim.stats import convergence_point


class TestConvergence:
    def test_converging_series(self):
        series = [1.0, 0.5, 0.3, 0.12, 0.1, 0.1, 0.11, 0.1, 0.1, 0.1]
        report = convergence_point(series)
        assert report.converged
        assert 2 <= report.index <= 4
        assert report.final_level == pytest.approx(0.1, abs=0.02)

    def test_flat_series_converges_at_zero(self):
        report = convergence_point([0.2] * 20)
        assert report.converged
        assert report.index == 0

    def test_never_settling_series(self):
        rng = np.random.default_rng(0)
        series = list(rng.uniform(0, 1, 50))
        series[-1] = 10.0  # violent tail keeps it outside any band
        report = convergence_point(series, band_fraction=0.01, min_band=1e-6)
        assert not report.converged
        assert report.index == -1

    def test_short_series_rejected(self):
        with pytest.raises(ConfigError):
            convergence_point([1.0, 2.0])

    def test_settle_fraction_validated(self):
        with pytest.raises(ConfigError):
            convergence_point([1.0] * 10, settle_fraction=1.5)

    def test_hirep_converges_faster_than_never(self, trained_system):
        series = trained_system.mse.windowed_mse()
        report = convergence_point(series)
        assert report.converged

    def test_str_forms(self):
        assert "converged at" in str(convergence_point([0.1] * 10))
