"""hirep-obs on bundles: the one diff printer and the clock heading.

The perf-record side of the same CLI (record/trend/diff/gate/flame) is
covered by ``test_perf_cli.py``; a serve bundle's SLO round trip by
``tests/integration/test_serve_load.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import main
from repro.perf.report import PerfReport


def make_bundle(path, metrics, *, spans=(), meta=None):
    """A minimal bundle directory: the files ``load_bundle`` reads."""
    path.mkdir()
    rows = [{"kind": "span", "category": "txn", **span} for span in spans]
    (path / "events.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    (path / "metrics.json").write_text(json.dumps(metrics))
    (path / "meta.json").write_text(json.dumps(meta or {}))
    return path


SPAN = {"name": "transaction", "span_id": 1, "start_ms": 0.0, "end_ms": 2.0}


def test_diff_keeps_null_apart_from_absent(tmp_path, capsys):
    # a NaN metric (an empty run's trust.mse) exports as null
    a = make_bundle(tmp_path / "a", {"trust.mse": None, "gone": 1.0})
    b = make_bundle(tmp_path / "b", {"trust.mse": 0.05, "new": 2.0})
    assert main(["diff", str(a), str(b), "--exit-code"]) == 1
    out = capsys.readouterr().out
    assert "  ~ trust.mse: None -> 0.05" in out
    assert "+ trust.mse" not in out
    assert "  - gone: 1.0" in out
    assert "  + new: 2.0" in out


def test_bundle_diff_notes_direction_like_perf_diff(tmp_path, capsys):
    a = make_bundle(tmp_path / "a", {"build_s": 2.0, "transactions": 10.0})
    b = make_bundle(tmp_path / "b", {"build_s": 4.0, "transactions": 20.0})
    main(["diff", str(a), str(b)])
    out = capsys.readouterr().out
    assert "  ~ build_s: 2.0 -> 4.0  (+2)  [2.00x WORSE]" in out
    assert "  ~ transactions: 10.0 -> 20.0  (+10)\n" in out  # no direction, no ratio


def test_diff_refuses_a_bundle_against_perf_records(tmp_path):
    bundle = make_bundle(tmp_path / "bundle", {})
    report = tmp_path / "r.json"
    report.write_text(json.dumps(PerfReport(suite="k", metrics={"x_s": 1.0}).to_dict()))
    for pair in ([bundle, report], [report, bundle]):
        with pytest.raises(SystemExit, match="cannot diff a telemetry bundle"):
            main(["diff", *map(str, pair)])


def test_diff_of_missing_paths_names_them(tmp_path):
    with pytest.raises(SystemExit, match="not a bundle, perf history or report"):
        main(["diff", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")])


def test_span_latency_heading_names_the_clock(tmp_path, capsys):
    sim = make_bundle(tmp_path / "sim", {"transactions": 1.0}, spans=[SPAN])
    fleet = make_bundle(
        tmp_path / "fleet", {"serve.frames_posted": 9.0}, spans=[SPAN]
    )
    main(["summarize", str(sim)])
    assert "span latency (sim-ms):" in capsys.readouterr().out
    main(["summarize", str(fleet)])
    out = capsys.readouterr().out
    assert "span latency (wall-ms):" in out
    assert "sim-ms" not in out

