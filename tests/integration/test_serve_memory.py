"""Integration: a live fleet's heap stops growing with its traffic.

A fleet keeps what a run is measured by — one ``Outcome`` and three
spans per transaction — and its always-on timeline holds a record per
frame, 180 frames a transaction.  Those records must be ones the
collector untracks: a record holding a dict stays tracked for good, and
a long run then slows down as every collection walks them all.
"""

import gc

import numpy as np

from repro.core.config import HiRepConfig
from repro.serve import LoadGenerator, ServeSystem, build_trace
from repro.sim.trace import TraceEntry

#: Tracked objects a transaction may leave behind: its Outcome and three
#: spans, and the report log lists agents open for subjects new to them.
GROWTH_PER_TX = 8


def tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_tracked_objects_grow_by_what_a_transaction_keeps():
    with ServeSystem(HiRepConfig(network_size=32, seed=2006)) as system:
        trace = build_trace("pooled", 32, 150, np.random.default_rng(2006))
        LoadGenerator(system, trace[:50], concurrency=2).run()
        before = tracked_objects()
        report = LoadGenerator(system, trace[50:], concurrency=2).run()
        after = tracked_objects()
        assert (report.completed, report.lost) == (100, 0)
        assert after - before <= GROWTH_PER_TX * 100, (after - before) / 100

        tracer = system.telemetry.tracer
        record = tracer._events[-1]
        assert not gc.is_tracked(record)
        time, category, src, dst, nbytes = record
        assert tracer.entries()[-1] == TraceEntry(
            time, category, (("src", src), ("dst", dst), ("bytes", nbytes))
        )
