"""Link latency models.

Fig. 8 reports response time in milliseconds; the paper "ignores the
individual bandwidth and the length of links" for traffic cost but needs a
latency model for response time.  We attach a latency to every *hop* (an
overlay edge, or a direct IP path between arbitrary nodes for onion relays)
drawn once per ordered pair from a configurable model, so repeated traversals
of the same path cost the same — consistent with a static underlay.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "LatencyMap",
]


class LatencyModel(abc.ABC):
    """Strategy for sampling a one-way hop latency in milliseconds."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one latency (must be > 0)."""

    def mean_ms(self) -> float:
        """Expected hop latency (the array kernel's analytic response-time
        model runs on it).  A model without a closed form gets the mean of
        a fixed-seed 512-draw probe stream — deterministic, and independent
        of every simulation stream."""
        probe = np.random.default_rng(0)
        return float(np.mean([self.sample(probe) for _ in range(512)]))


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Every hop costs the same; handy for analytic checks in tests."""

    ms: float = 50.0

    def __post_init__(self) -> None:
        if self.ms <= 0:
            raise ConfigError(f"latency must be positive, got {self.ms}")

    def sample(self, rng: np.random.Generator) -> float:
        return self.ms

    def mean_ms(self) -> float:
        return float(self.ms)


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Uniform in [lo, hi] — the library default (10–150 ms, WAN-ish)."""

    lo: float = 10.0
    hi: float = 150.0

    def __post_init__(self) -> None:
        if self.lo <= 0 or self.hi < self.lo:
            raise ConfigError(f"invalid latency range [{self.lo}, {self.hi}]")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.lo, self.hi))

    def mean_ms(self) -> float:
        return (self.lo + self.hi) / 2.0


@dataclass(frozen=True)
class LogNormalLatency(LatencyModel):
    """Heavy-tailed latencies; median ≈ exp(mu) ms."""

    mu: float = 3.9  # median ≈ 50 ms
    sigma: float = 0.5
    cap_ms: float = 2000.0

    def __post_init__(self) -> None:
        if self.sigma <= 0 or self.cap_ms <= 0:
            raise ConfigError("sigma and cap_ms must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        return float(min(rng.lognormal(self.mu, self.sigma), self.cap_ms))

    def mean_ms(self) -> float:
        """The uncapped log-normal mean, clamped to the cap."""
        mean = float(np.exp(self.mu + self.sigma * self.sigma / 2.0))
        return min(mean, float(self.cap_ms))


class LatencyMap:
    """Memoized symmetric pairwise latencies.

    Latencies are sampled lazily on first use of a pair and cached, so a
    1000-node network does not materialize a 10⁶-entry matrix.
    """

    def __init__(self, model: LatencyModel, rng: np.random.Generator) -> None:
        self._model = model
        self._rng = rng
        self._cache: dict[tuple[int, int], float] = {}

    def between(self, u: int, v: int) -> float:
        """One-way latency between nodes ``u`` and ``v`` (symmetric)."""
        if u == v:
            return 0.0
        key = (u, v) if u < v else (v, u)
        value = self._cache.get(key)
        if value is None:
            value = self._model.sample(self._rng)
            self._cache[key] = value
        return value

    def __len__(self) -> int:
        return len(self._cache)
