"""Discrete-event simulation substrate.

Exports the engine, seeded-RNG helpers, and the metric collectors used by
every experiment.
"""

from repro.sim.engine import SimEngine
from repro.sim.metrics import (
    MessageCounter,
    MSETracker,
    ResponseTimeTracker,
)
from repro.sim.trace import TraceEntry, Tracer
from repro.sim.rng import choice_without, make_rng, spawn
from repro.sim.stats import (
    ConvergenceReport,
    SeriesSummary,
    confidence_interval,
    convergence_point,
    crossover_index,
    downsample,
    moving_average,
    summarize,
)

__all__ = [
    "TraceEntry",
    "Tracer",
    "SimEngine",
    "MessageCounter",
    "MSETracker",
    "ResponseTimeTracker",
    "make_rng",
    "spawn",
    "choice_without",
    "ConvergenceReport",
    "SeriesSummary",
    "summarize",
    "downsample",
    "moving_average",
    "confidence_interval",
    "convergence_point",
    "crossover_index",
]
