"""Small statistics helpers shared by experiments and benchmarks.

Everything here is vectorized numpy; these run once per experiment so
clarity beats micro-optimization, but we still avoid Python loops over
per-transaction data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "SeriesSummary",
    "summarize",
    "downsample",
    "moving_average",
    "confidence_interval",
    "crossover_index",
    "ConvergenceReport",
    "convergence_point",
]


@dataclass(frozen=True)
class SeriesSummary:
    """Five-number-ish summary of a numeric series.

    The repo's one percentile rule: numpy's default, linear interpolation
    between the two nearest order statistics.
    """

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


def summarize(values: np.ndarray | list[float]) -> SeriesSummary:
    """Summarize a series; empty input yields NaNs with ``n == 0``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        nan = float("nan")
        return SeriesSummary(0, nan, nan, nan, nan, nan, nan, nan)
    return SeriesSummary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        p99=float(np.percentile(arr, 99)),
    )


def downsample(values: np.ndarray | list[float], points: int) -> np.ndarray:
    """Pick ~``points`` evenly spaced samples (always includes the last).

    Used to turn 500-transaction series into the handful of plot points the
    paper's figures show.
    """
    arr = np.asarray(values, dtype=np.float64)
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    if arr.size <= points:
        return arr.copy()
    idx = np.linspace(0, arr.size - 1, points).round().astype(np.int64)
    idx = np.unique(np.append(idx, arr.size - 1))
    return arr[idx]


def moving_average(values: np.ndarray | list[float], window: int) -> np.ndarray:
    """Trailing moving average with a shrinking head window."""
    arr = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if arr.size == 0:
        return arr
    csum = np.cumsum(arr)
    idx = np.arange(arr.size)
    lo = np.maximum(idx - window + 1, 0)
    totals = csum - np.where(lo > 0, csum[lo - 1], 0.0)
    return totals / (idx - lo + 1)


def confidence_interval(
    values: np.ndarray | list[float], z: float = 1.96
) -> tuple[float, float]:
    """Normal-approximation CI of the mean; degenerate for n < 2."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return (float("nan"), float("nan"))
    mean = float(arr.mean())
    if arr.size == 1:
        return (mean, mean)
    half = z * float(arr.std(ddof=1)) / float(np.sqrt(arr.size))
    return (mean - half, mean + half)


def crossover_index(a: np.ndarray | list[float], b: np.ndarray | list[float]) -> int | None:
    """First index where series ``a`` drops to or below series ``b``.

    Fig. 7 discussion: voting beats hiREP for very few attackers, then hiREP
    overtakes — this locates that crossover.  Returns ``None`` if ``a`` never
    reaches ``b``.
    """
    aa = np.asarray(a, dtype=np.float64)
    bb = np.asarray(b, dtype=np.float64)
    if aa.shape != bb.shape:
        raise ValueError(f"shape mismatch: {aa.shape} vs {bb.shape}")
    hits = np.nonzero(aa <= bb)[0]
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True)
class ConvergenceReport:
    """Where and to what a series converged."""

    converged: bool
    index: int               # first index of sustained convergence (-1 if never)
    final_level: float       # mean over the settle window
    band: float              # tolerance used

    def __str__(self) -> str:
        if not self.converged:
            return f"not converged (final level {self.final_level:.4g})"
        return f"converged at index {self.index} to {self.final_level:.4g} (±{self.band:.4g})"


def convergence_point(
    series: np.ndarray | list[float],
    *,
    settle_fraction: float = 0.2,
    band_fraction: float = 0.25,
    min_band: float = 0.01,
) -> ConvergenceReport:
    """First index after which the series stays inside the final band.

    Fig. 6's narrative needs a number: *when* has the system trained?  The
    paper eyeballs "about 100 transactions"; this makes it a measurement.

    Parameters
    ----------
    settle_fraction:
        The trailing fraction of the series used to define the final level.
    band_fraction:
        Band half-width as a fraction of the final level.
    min_band:
        Absolute floor on the band (handles final levels near zero).
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.size < 5:
        raise ConfigError(f"series too short to assess convergence ({arr.size})")
    if not 0.0 < settle_fraction < 1.0:
        raise ConfigError(f"settle_fraction must be in (0,1), got {settle_fraction}")
    settle = max(2, int(arr.size * settle_fraction))
    final_level = float(np.mean(arr[-settle:]))
    band = max(abs(final_level) * band_fraction, min_band)
    inside = np.abs(arr - final_level) <= band
    # Find the first index from which `inside` holds for the whole tail.
    outside_idx = np.nonzero(~inside)[0]
    first = 0 if outside_idx.size == 0 else int(outside_idx[-1]) + 1
    if first >= arr.size:
        return ConvergenceReport(False, -1, final_level, band)
    return ConvergenceReport(True, first, final_level, band)
