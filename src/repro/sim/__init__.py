"""Discrete-event simulation substrate.

Exports the engine, event queue, clock, seeded-RNG helpers, and the metric
collectors used by every experiment.
"""

from repro.sim.clock import SimClock
from repro.sim.engine import SimEngine
from repro.sim.events import Event, EventQueue
from repro.sim.metrics import (
    MessageCounter,
    MSETracker,
    ResponseTimeTracker,
)
from repro.sim.process import ProcessHandle, spawn as spawn_process
from repro.sim.trace import TraceEntry, Tracer
from repro.sim.rng import choice_without, make_rng, sample_unique, spawn
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
    "ProcessHandle",
    "spawn_process",
    "SimClock",
    "SimEngine",
    "Event",
    "EventQueue",
    "MessageCounter",
    "MSETracker",
    "ResponseTimeTracker",
    "make_rng",
    "spawn",
    "choice_without",
    "sample_unique",
    "ConvergenceReport",
    "SeriesSummary",
    "summarize",
    "downsample",
    "moving_average",
    "confidence_interval",
    "convergence_point",
    "crossover_index",
]
