"""Unit tests for the metric snapshot (``TelemetryPlane.collect``).

The snapshot is one merge: the plane's own record counts (``obs.*``)
and every attached system's metrics, sorted by name.
"""

from __future__ import annotations

import pytest

from repro.obs.plane import TelemetryPlane


@pytest.fixture
def traced(small_system):
    plane = TelemetryPlane()
    plane.attach(small_system)
    small_system.run(3, requestor=0)
    return plane, small_system


class TestRegistryCollect:
    def test_collect_is_name_sorted(self, traced):
        plane, _ = traced
        keys = list(plane.collect())
        assert keys == sorted(keys)
        # one merge: the plane's counts sort in among the system's metrics
        assert keys[0] == "net.messages.total"
        assert keys.index("obs.events.evicted") < keys.index("response_ms.count")

    def test_collectors_merge_after_instruments(self, small_system):
        plane = TelemetryPlane()
        own = {"obs.events.evicted": 0, "obs.events.recorded": 0, "obs.spans.recorded": 0}
        assert plane.collect() == own
        plane.attach(small_system)
        small_system.run(3, requestor=0)
        snap = plane.collect()
        # the plane's counts are still there, now beside the system's metrics
        assert snap["obs.spans.recorded"] == len(plane.spans)
        assert snap["obs.events.recorded"] == plane.tracer.recorded
        assert snap["transactions"] == 3
        assert snap["net.messages.total"] == small_system.counter.total
        assert set(own) < set(snap)
