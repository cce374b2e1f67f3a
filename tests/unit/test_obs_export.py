"""Unit tests for telemetry exporters and bundles (repro.obs.export/bundle)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs.bundle import bundle_key, load_bundle, store_bundle, write_bundle
from repro.obs.export import (
    read_jsonl,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_json,
)
from repro.obs.plane import TelemetryPlane


@pytest.fixture
def plane():
    """A plane with hand-recorded content (no simulation needed)."""
    plane = TelemetryPlane()
    plane.tracer.record(1.0, "trust_query", src=0, dst=3, bytes=992)
    plane.tracer.record(2.5, "fault.drop", src=3, dst=0, category="trust_response")
    txn = plane.spans.begin("transaction", start_ms=0.0, category="txn", index=0)
    plane.spans.emit("query", 0.0, 5.0, category="phase", parent=txn)
    plane.spans.finish(txn, 10.0)
    plane.spans.begin("open", start_ms=9.0)  # deliberately left open
    return plane


class TestJsonl:
    def test_round_trip(self, plane, tmp_path):
        path = write_events_jsonl(plane, tmp_path / "events.jsonl")
        rows = read_jsonl(path)
        events = [r for r in rows if r["kind"] == "event"]
        spans = [r for r in rows if r["kind"] == "span"]
        assert len(events) == 2 and len(spans) == 3
        assert events[0]["category"] == "trust_query"
        assert events[0]["fields"] == {"src": 0, "dst": 3, "bytes": 992}
        # a field may share a name with an envelope key without clobbering it
        assert events[1]["category"] == "fault.drop"
        assert events[1]["fields"]["category"] == "trust_response"
        assert spans[0]["name"] == "transaction"
        assert spans[1]["parent_id"] == spans[0]["span_id"]

    def test_open_span_exports_null_end(self, plane, tmp_path):
        rows = read_jsonl(write_events_jsonl(plane, tmp_path / "e.jsonl"))
        open_rows = [r for r in rows if r["kind"] == "span" and r["name"] == "open"]
        assert open_rows[0]["end_ms"] is None

    def test_every_line_is_valid_sorted_json(self, plane, tmp_path):
        path = write_events_jsonl(plane, tmp_path / "e.jsonl")
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            assert line == json.dumps(
                obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
            )


class TestNaNSanitizing:
    def test_nan_and_inf_become_null(self, tmp_path):
        path = write_metrics_json(
            {"mse": float("nan"), "peak": float("inf"), "ok": 1.5},
            tmp_path / "m.json",
        )
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text) == {"mse": None, "peak": None, "ok": 1.5}


class TestChromeTrace:
    def test_structure_and_microsecond_conversion(self, plane, tmp_path):
        trace = json.loads(
            write_chrome_trace(plane, tmp_path / "trace.json").read_text()
        )
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {
            "transactions",
            "messages",
            "events",
        }
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 3 and len(instants) == 2
        txn = next(e for e in complete if e["name"] == "transaction")
        assert txn["ts"] == 0.0 and txn["dur"] == 10_000.0  # 10 ms -> 10000 us
        drop = next(e for e in instants if e["name"] == "fault.drop")
        assert drop["ts"] == 2500.0
        assert drop["args"]["category"] == "trust_response"


class TestBundles:
    def test_write_key_load(self, plane, tmp_path):
        directory = write_bundle(plane, tmp_path / "b", meta={"job": "x"})
        key = bundle_key(directory)
        assert len(key) == 64
        bundle = load_bundle(directory)
        assert bundle.key == key
        assert bundle.meta == {"job": "x"}
        assert len(bundle.events) == 2
        assert bundle.metrics == plane.collect()
        assert bundle.metrics["obs.spans.recorded"] == 3

    def test_meta_does_not_change_identity(self, plane, tmp_path):
        a = write_bundle(plane, tmp_path / "a", meta={"note": "first"})
        b = write_bundle(plane, tmp_path / "b", meta={"note": "second"})
        assert bundle_key(a) == bundle_key(b)

    def test_store_is_content_addressed_and_dedupes(self, plane, tmp_path):
        root = tmp_path / "bundles"
        key1, path1 = store_bundle(plane, root)
        key2, path2 = store_bundle(plane, root)
        assert key1 == key2 and path1 == path2
        assert path1 == root / key1[:2] / key1
        stored = [p for p in root.rglob("events.jsonl")]
        assert len(stored) == 1

    def test_key_requires_complete_bundle(self, tmp_path):
        (tmp_path / "events.jsonl").write_text("")
        with pytest.raises(ConfigError):
            bundle_key(tmp_path)
