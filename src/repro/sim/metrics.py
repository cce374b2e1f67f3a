"""Metric collectors for the paper's three evaluation metrics.

* :class:`MessageCounter` — traffic cost (Fig. 5, §4.1): message counts
  bucketed by category, with per-transaction snapshots.
* :class:`MSETracker` — trust-evaluation accuracy (Figs. 6–7): mean-square
  error between estimated and true trust values, windowed over transactions.
* :class:`ResponseTimeTracker` — trust-query latency (Fig. 8): per-request
  and cumulative response times.

All collectors store plain Python floats/ints on the hot path and convert to
numpy arrays only at summary time, following the profiling guidance in the
HPC guides (vectorize aggregation, not per-event bookkeeping).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.sim.stats import moving_average

__all__ = [
    "MessageCounter",
    "MSETracker",
    "ResponseTimeTracker",
]


class MessageCounter:
    """Count messages by category and snapshot totals per transaction."""

    def __init__(self) -> None:
        self.by_category: Counter[str] = Counter()
        self.total = 0
        self._snapshots: list[int] = []

    def count(self, category: str, n: int = 1) -> None:
        """Record ``n`` messages of ``category``."""
        if n < 0:
            raise ValueError(f"cannot count {n} messages")
        self.by_category[category] += n
        self.total += n

    def snapshot(self) -> int:
        """Record the running total (call once per transaction); return it."""
        self._snapshots.append(self.total)
        return self.total

    @property
    def snapshots(self) -> np.ndarray:
        """Cumulative message totals, one entry per ``snapshot()`` call."""
        return np.asarray(self._snapshots, dtype=np.int64)

    def per_transaction(self) -> np.ndarray:
        """Messages attributable to each transaction (first differences)."""
        snaps = self.snapshots
        if snaps.size == 0:
            return snaps
        return np.diff(snaps, prepend=0)

    def reset(self) -> None:
        self.by_category.clear()
        self.total = 0
        self._snapshots.clear()


class MSETracker:
    """Track squared error between estimated and true trust values.

    The paper reports MSE as a function of the number of transactions
    (Fig. 6) — we expose both the full running series and a sliding-window
    view so convergence ("after a training process of about 100
    transactions") is visible.
    """

    def __init__(self, window: int = 50) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._sq_errors: list[float] = []

    def record(self, estimate: float, truth: float) -> float:
        """Record one (estimate, truth) pair; return the squared error."""
        err = float(estimate) - float(truth)
        sq = err * err
        self._sq_errors.append(sq)
        return sq

    def __len__(self) -> int:
        return len(self._sq_errors)

    @property
    def squared_errors(self) -> np.ndarray:
        return np.asarray(self._sq_errors, dtype=np.float64)

    def mse(self) -> float:
        """Overall mean-square error (NaN when empty)."""
        if not self._sq_errors:
            return float("nan")
        return float(np.mean(self._sq_errors))

    def windowed_mse(self) -> np.ndarray:
        """Sliding-window MSE series (window shrinks at the start).

        ``out[i]`` is the mean of squared errors over transactions
        ``[max(0, i - window + 1), i]``.
        """
        return moving_average(self.squared_errors, self.window)

    def tail_mse(self, n: int | None = None) -> float:
        """MSE over the final ``n`` records (defaults to the window size)."""
        n = self.window if n is None else n
        if not self._sq_errors:
            return float("nan")
        return float(np.mean(self._sq_errors[-n:]))

    def reset(self) -> None:
        self._sq_errors.clear()


class ResponseTimeTracker:
    """Track per-request response times and the paper's cumulative series."""

    def __init__(self) -> None:
        self._times: list[float] = []

    def record(self, elapsed_ms: float) -> None:
        if elapsed_ms < 0:
            raise ValueError(f"negative response time {elapsed_ms!r}")
        self._times.append(float(elapsed_ms))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=np.float64)

    def cumulative(self) -> np.ndarray:
        """Cumulative response time after each transaction (Fig. 8 y-axis)."""
        return np.cumsum(self.times)

    def mean(self) -> float:
        if not self._times:
            return float("nan")
        return float(np.mean(self._times))

    def reset(self) -> None:
        self._times.clear()
