"""Agent-expertise tracking (§3.4.3).

After every transaction a peer scores each consulted agent: the *current
accuracy* ``A_c`` is 1 when the agent's evaluation was consistent with the
observed transaction result and 0 otherwise, and the running expertise is
the EWMA ``α·A_c + (1-α)·A_p`` with ``α ∈ (0, 1)``.

The eviction rule is the paper's hirep-θ family: an agent whose expertise
falls below θ is dropped from the trusted-agent list (Fig. 6 sweeps
θ ∈ {0.4, 0.6, 0.8}); an *offline* agent with positive expertise is parked
in the backup cache instead of discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.semantics import consistency_bit, consistent, ewma_step
from repro.core.semantics import confidence as _confidence
from repro.errors import ConfigError

__all__ = ["ExpertiseTracker", "consistent"]


@dataclass
class ExpertiseTracker:
    """EWMA expertise of a single agent as seen by one peer.

    ``updates`` counts how many transactions have scored this agent; the
    derived :attr:`confidence` (``updates / (updates + 1)``) lets estimate
    computation discount agents with no track record — a fresh agent starts
    at the paper's initial expertise 1 but has confidence 0 until proven.
    """

    alpha: float
    value: float = 1.0
    updates: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha}")
        if not 0.0 <= self.value <= 1.0:
            raise ConfigError(f"expertise must be in [0,1], got {self.value}")
        if self.updates < 0:
            raise ConfigError(f"updates must be >= 0, got {self.updates}")

    @property
    def confidence(self) -> float:
        """How much track record backs the expertise value, in [0, 1)."""
        return _confidence(self.updates)

    def update(self, evaluation: float, outcome: float) -> float:
        """Fold one transaction's consistency into the running expertise."""
        self.value = ewma_step(
            self.alpha, self.value, consistency_bit(evaluation, outcome)
        )
        self.updates += 1
        return self.value

    def below(self, threshold: float) -> bool:
        """True when this agent should be evicted under hirep-θ."""
        return self.value < threshold

    def steps_to_evict(self, threshold: float) -> int:
        """How many consecutive failures until eviction from the current value.

        Closed form of the EWMA with A_c = 0: value decays by (1-α) each
        step.  Useful for reasoning about convergence speed vs θ (Fig. 6:
        a higher threshold gives shorter convergence).
        """
        if self.value < threshold:
            return 0
        if threshold <= 0.0:
            return -1  # never reaches a non-positive threshold exactly
        steps = 0
        value = self.value
        while value >= threshold:
            value *= 1.0 - self.alpha
            steps += 1
            if steps > 10_000:
                return -1
        return steps
