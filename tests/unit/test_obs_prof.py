"""Unit tests for the sampling profiler (repro.obs.prof).

Covers the profiler's own mechanics (lifecycle, attribution, export),
its attachment through the plane/capture seams, and the bundle contract:
``profile.json`` rides along but never changes a bundle's identity.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs.bundle import load_bundle, store_bundle, write_bundle
from repro.obs.capture import capture
from repro.obs.clock import WallClock
from repro.obs.plane import TelemetryPlane
from repro.obs.prof import (
    PROFILE_SCHEMA,
    Profiler,
    collapsed_lines,
    max_rss_kb,
    profile_chrome_trace_obj,
    write_flamegraph,
)


def spin(ms: float = 30.0) -> int:
    """Busy-loop for ~ms so the sampler has something to catch."""
    clock = WallClock()
    n = 0
    while clock.now < ms:
        n += 1
    return n


class TestLifecycle:
    def test_start_stop_and_running_flag(self):
        prof = Profiler(interval_ms=1.0)
        assert not prof.running
        prof.start()
        assert prof.running
        spin()
        prof.stop()
        assert not prof.running
        assert prof.wall_ms >= 25.0
        assert prof.rss_peak_kb > 0

    def test_double_start_raises(self):
        prof = Profiler()
        prof.start()
        try:
            with pytest.raises(ConfigError, match="already running"):
                prof.start()
        finally:
            prof.stop()

    def test_stop_is_idempotent(self):
        prof = Profiler(interval_ms=1.0)
        with prof.profile():
            spin(10.0)
        wall = prof.wall_ms
        prof.stop()
        assert prof.wall_ms == wall  # second stop added nothing

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigError, match="interval"):
            Profiler(interval_ms=0.0)

    def test_memory_mode_records_tracemalloc_peak(self):
        prof = Profiler(interval_ms=1.0, memory=True)
        with prof.profile():
            blob = [bytes(64_000) for _ in range(20)]
        assert len(blob) == 20
        assert prof.tracemalloc_peak_kb is not None
        assert prof.tracemalloc_peak_kb > 1000.0  # >1MB traced

    def test_max_rss_kb_positive(self):
        assert max_rss_kb() > 0


class TestAttribution:
    def test_samples_and_self_times(self):
        prof = Profiler(interval_ms=1.0)
        with prof.profile():
            spin(50.0)
        assert prof.sample_count > 5
        times = prof.self_times()
        assert times, "no frames attributed"
        # the busy loop bottoms out in spin() or the clock property it polls
        top = next(iter(times))
        assert "spin" in top or "WallClock.now" in top
        # and spin() itself must appear somewhere in the sampled stacks
        assert any("spin" in key for key in prof.collapsed())

    def test_context_labels_samples(self):
        prof = Profiler(interval_ms=1.0)
        with prof.profile():
            with prof.context("hot"):
                spin(40.0)
        contexts = prof.contexts()
        assert contexts.get("hot", 0) > 0
        collapsed = prof.collapsed()
        assert any(key.startswith("hot;") for key in collapsed)

    def test_innermost_context_wins_and_restores(self):
        prof = Profiler()
        with prof.context("outer"):
            with prof.context("inner"):
                assert prof._context_label == "inner"
            assert prof._context_label == "outer"
        assert prof._context_label == ""

    def test_note_span_wall_joins_by_span_id(self):
        prof = Profiler()
        prof.note_span_wall(7, "transaction", 12.5)
        assert prof.span_wall == [(7, "transaction", 12.5)]
        assert prof.to_dict()["span_wall_ms"] == [[7, "transaction", 12.5]]


class TestExport:
    def profiled(self) -> Profiler:
        prof = Profiler(interval_ms=1.0)
        with prof.profile():
            with prof.context("bench"):
                spin(40.0)
        return prof

    def test_to_dict_shape(self):
        exported = self.profiled().to_dict()
        assert exported["schema"] == PROFILE_SCHEMA
        assert exported["samples"] > 0
        assert exported["wall_ms"] > 0
        assert exported["stacks"], "no stacks exported"
        # stacks sorted by descending count; timeline indexes into them
        counts = [s["count"] for s in exported["stacks"]]
        assert counts == sorted(counts, reverse=True)
        for _, index in exported["timeline"]:
            assert 0 <= index < len(exported["stacks"])

    def test_collapsed_lines_and_flamegraph_file(self, tmp_path):
        exported = self.profiled().to_dict()
        lines = collapsed_lines(exported)
        assert lines and all(" " in line for line in lines)
        assert any(line.startswith("bench;") for line in lines)
        path = write_flamegraph(exported, tmp_path / "deep" / "flame.txt")
        assert path.read_text().splitlines() == lines

    def test_chrome_trace_slices(self):
        exported = self.profiled().to_dict()
        trace = profile_chrome_trace_obj(exported)
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(exported["timeline"])
        assert all(s["dur"] == 1000.0 for s in slices)  # 1ms interval in us


class TestPlaneIntegration:
    def test_set_profiler_joins_the_span_tree(self, small_system):
        plane = TelemetryPlane()
        prof = plane.set_profiler(Profiler(interval_ms=1.0))
        plane.attach(small_system)
        with prof.profile():
            small_system.run(2, requestor=0)
        # wall-clock data stays in the profiler, out of the metric snapshot
        assert not any(k.startswith("prof.") for k in plane.collect())
        # the span join carries one entry per traced transaction
        txn_ids = {
            s.span_id for s in plane.spans.spans() if s.category == "txn"
        }
        assert {sid for sid, _, _ in prof.span_wall} == txn_ids
        assert all(wall >= 0.0 for _, _, wall in prof.span_wall)

    def test_second_profiler_rejected(self):
        plane = TelemetryPlane()
        plane.set_profiler(Profiler())
        with pytest.raises(ConfigError, match="already has a profiler"):
            plane.set_profiler(Profiler())

    def test_capture_profile_true(self, small_config):
        from repro.core.registry import build_system

        with capture(profile=True) as plane:
            system = build_system("hirep", small_config)
            system.bootstrap()
            system.run(2, requestor=0)
            profiler = plane.profiler
            assert profiler is not None and profiler.running
        assert not profiler.running  # stopped when the window closed
        assert profiler.wall_ms > 0

    def test_capture_profile_env(self, small_config, monkeypatch):
        from repro.core.registry import build_system

        monkeypatch.setenv("HIREP_PROFILE", "mem")
        with capture() as plane:
            build_system("hirep", small_config)
            assert plane.profiler is not None
            assert plane.profiler.memory
        monkeypatch.setenv("HIREP_PROFILE", "0")
        with capture() as plane:
            assert plane.profiler is None

    def test_capture_without_profile_has_no_profiler(self):
        with capture() as plane:
            assert plane.profiler is None


class TestBundleContract:
    def run_profiled(self, small_system) -> TelemetryPlane:
        plane = TelemetryPlane()
        prof = plane.set_profiler(Profiler(interval_ms=1.0))
        plane.attach(small_system)
        with prof.profile():
            small_system.run(2, requestor=0)
        return plane

    def test_profile_json_written_and_loaded(self, small_system, tmp_path):
        plane = self.run_profiled(small_system)
        write_bundle(plane, tmp_path / "b")
        bundle = load_bundle(tmp_path / "b")
        assert bundle.profile is not None
        assert bundle.profile["schema"] == PROFILE_SCHEMA
        # wall-clock numbers live in profile.json, never in hashed metrics.json
        assert bundle.metrics == plane.collect()
        assert not any(k.startswith("prof.") for k in bundle.metrics)

    def test_profile_excluded_from_bundle_key(self, small_system, tmp_path):
        plane = self.run_profiled(small_system)
        key, path = store_bundle(plane, tmp_path / "store")
        mutated = json.loads((path / "profile.json").read_text())
        mutated["samples"] = 10_000_000
        (path / "profile.json").write_text(json.dumps(mutated))
        assert load_bundle(path).key == key

    def test_profiled_and_unprofiled_runs_share_one_bundle_key(
        self, small_config, tmp_path
    ):
        from repro.core.registry import build_system

        stored = []
        for profile in (True, False):
            with capture(profile=profile) as plane:
                system = build_system("hirep", small_config)
                system.bootstrap()
                system.run(3, requestor=0)
            assert (plane.profiler is not None) == profile
            key, path = store_bundle(plane, tmp_path / "store")
            assert load_bundle(path).metrics == plane.collect()
            stored.append((key, path))
        assert stored[0] == stored[1]
        assert (stored[0][1] / "profile.json").is_file()  # the first store kept it

    def test_unprofiled_bundle_has_no_profile(self, small_system, tmp_path):
        plane = TelemetryPlane()
        plane.attach(small_system)
        small_system.run(1, requestor=0)
        write_bundle(plane, tmp_path / "b")
        assert not (tmp_path / "b" / "profile.json").exists()
        assert load_bundle(tmp_path / "b").profile is None
