"""Trust-value computation models used by reputation agents.

The paper deliberately leaves the computation model open ("a reputation
agent computes the trust value of each node using its own trust value
computation model", §3.2) and its *simulation* abstracts agent capability
into two classes (§5.2): a **good** agent rates trustable peers in
[0.6, 1.0] and untrustable peers in [0, 0.4]; a **poor** agent rates
inconsistently (the ranges swapped).  :class:`QualityDrivenModel` implements
exactly that.

Two report-driven models are also provided — they compute trust values from
the authentic transaction reports an agent accumulates (§4.2.3: "with the
authentic transaction reports, reputation agents can decide the trust value
of the peer using the next level computation model"), and are used in the
extension experiments.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.semantics import ewma_step, rate
from repro.crypto.hashing import NodeID
from repro.errors import ConfigError

__all__ = [
    "TrustModel",
    "QualityDrivenModel",
    "ReportAverageModel",
    "EWMAReportModel",
]


class TrustModel(abc.ABC):
    """Strategy an agent uses to produce a trust value for a subject."""

    @abc.abstractmethod
    def evaluate(
        self,
        subject: NodeID,
        subject_truth: float,
        rng: np.random.Generator,
    ) -> float:
        """Return the agent's trust value for ``subject`` in [0, 1].

        ``subject_truth`` is the simulation's ground truth; models that are
        driven by accumulated reports ignore it.
        """

    def observe_report(self, subject: NodeID, outcome: float) -> None:
        """Fold an authenticated transaction report into the model."""
        # Default: evaluation does not depend on reports.


class QualityDrivenModel(TrustModel):
    """The paper's simulation model (§5.2).

    ``good=True``: consistent ratings; ``good=False``: inverted ratings.
    """

    def __init__(
        self,
        good: bool,
        good_range: tuple[float, float] = (0.6, 1.0),
        bad_range: tuple[float, float] = (0.0, 0.4),
    ) -> None:
        for lo, hi in (good_range, bad_range):
            if not 0.0 <= lo <= hi <= 1.0:
                raise ConfigError(f"invalid rating range ({lo}, {hi})")
        self.good = good
        self.good_range = good_range
        self.bad_range = bad_range

    def evaluate(
        self, subject: NodeID, subject_truth: float, rng: np.random.Generator
    ) -> float:
        return rate(self.good, subject_truth, rng, self.good_range, self.bad_range)


class ReportAverageModel(TrustModel):
    """Mean of all authenticated reports; prior 0.5 before any evidence."""

    def __init__(self, prior: float = 0.5) -> None:
        if not 0.0 <= prior <= 1.0:
            raise ConfigError(f"prior must be in [0,1], got {prior}")
        self.prior = prior
        self._sums: dict[NodeID, float] = {}
        self._counts: dict[NodeID, int] = {}

    def observe_report(self, subject: NodeID, outcome: float) -> None:
        self._sums[subject] = self._sums.get(subject, 0.0) + outcome
        self._counts[subject] = self._counts.get(subject, 0) + 1

    def evaluate(
        self, subject: NodeID, subject_truth: float, rng: np.random.Generator
    ) -> float:
        count = self._counts.get(subject, 0)
        if count == 0:
            return self.prior
        return self._sums[subject] / count

    def report_count(self, subject: NodeID) -> int:
        return self._counts.get(subject, 0)


class EWMAReportModel(TrustModel):
    """Exponentially weighted report history — favours recent behaviour.

    Captures peers that turn malicious after building reputation (the
    oscillation attack EigenTrust-era systems worry about).
    """

    def __init__(self, alpha: float = 0.3, prior: float = 0.5) -> None:
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"alpha must be in (0,1), got {alpha}")
        if not 0.0 <= prior <= 1.0:
            raise ConfigError(f"prior must be in [0,1], got {prior}")
        self.alpha = alpha
        self.prior = prior
        self._values: dict[NodeID, float] = {}

    def observe_report(self, subject: NodeID, outcome: float) -> None:
        prev = self._values.get(subject, self.prior)
        self._values[subject] = ewma_step(self.alpha, prev, outcome)

    def evaluate(
        self, subject: NodeID, subject_truth: float, rng: np.random.Generator
    ) -> float:
        return self._values.get(subject, self.prior)
