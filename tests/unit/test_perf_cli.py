"""hirep-obs on perf records: record/trend/diff/gate/flame, exit codes.

``diff`` and ``gate`` always print their findings, but a non-zero exit
needs ``--exit-code`` — so interactive use never fails a shell and CI
opts in explicitly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.cli import main
from repro.perf.gate import TOLERANCE
from repro.perf.history import PerfHistory
from repro.perf.report import PerfReport

GOLDEN_CAMPAIGN = (
    Path(__file__).resolve().parents[1] / "data" / "mini_campaign_golden.json"
)


def write_report_file(path: Path, *reports: PerfReport) -> Path:
    payload = {"reports": [r.to_dict() for r in reports]}
    path.write_text(json.dumps(payload))
    return path


def report(value: float, suite: str = "kernel", metric: str = "tx_per_sec") -> PerfReport:
    return PerfReport(
        suite=suite,
        metrics={metric: value},
        backend="hirep-array",
        network_size=1000,
    )


# ---------------------------------------------------------------- record


def test_record_ingests_envelope_and_stamps_sha(tmp_path, capsys):
    file = write_report_file(tmp_path / "BENCH_perf.json", report(100.0))
    history_dir = tmp_path / "history"
    code = main(["record", str(file), "--history", str(history_dir)])
    assert code == 0
    assert "recorded 1 report(s)" in capsys.readouterr().out
    (rec,) = PerfHistory(history_dir).records()
    assert rec.metrics["tx_per_sec"] == 100.0
    # cwd is the repo checkout, so "auto" resolves to a real sha
    assert rec.git_sha is None or len(rec.git_sha) == 40


def test_record_explicit_sha(tmp_path):
    file = write_report_file(tmp_path / "r.json", report(1.0))
    main(["record", str(file), "--history", str(tmp_path / "h"), "--git-sha", "cafe"])
    assert PerfHistory(tmp_path / "h").records()[0].git_sha == "cafe"


def test_record_accepts_bare_object_and_list(tmp_path):
    single = tmp_path / "one.json"
    single.write_text(json.dumps(report(1.0).to_dict()))
    listed = tmp_path / "two.json"
    listed.write_text(json.dumps([report(2.0).to_dict(), report(3.0).to_dict()]))
    main(["record", str(single), str(listed), "--history", str(tmp_path / "h")])
    assert len(PerfHistory(tmp_path / "h").records()) == 3


# ---------------------------------------------------------------- trend


def test_trend_prints_series_tail(tmp_path, capsys):
    history = PerfHistory(tmp_path / "h")
    for value in (100.0, 110.0, 105.0):
        history.record(report(value))
    code = main(["trend", "--history", str(tmp_path / "h")])
    out = capsys.readouterr().out
    assert code == 0
    assert "kernel/hirep-array N=1000" in out
    assert "100 -> 110 -> 105" in out
    assert "(^ better)" in out


def test_trend_empty_history(tmp_path, capsys):
    assert main(["trend", "--history", str(tmp_path / "none")]) == 0
    assert "no perf history" in capsys.readouterr().out


# ---------------------------------------------------------------- diff


def test_diff_identical_exits_zero(tmp_path, capsys):
    a = write_report_file(tmp_path / "a.json", report(100.0))
    b = write_report_file(tmp_path / "b.json", report(100.0))
    assert main(["diff", str(a), str(b), "--exit-code"]) == 0
    assert "no metric differences" in capsys.readouterr().out


def test_diff_regression_marked_and_gated_by_flag(tmp_path, capsys):
    a = write_report_file(tmp_path / "a.json", report(100.0))
    b = write_report_file(tmp_path / "b.json", report(50.0))
    # prints the finding but exits 0 without --exit-code
    assert main(["diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "0.50x WORSE" in out
    assert main(["diff", str(a), str(b), "--exit-code"]) == 1


def test_diff_direction_aware_improvement(tmp_path, capsys):
    a = write_report_file(tmp_path / "a.json", report(100.0))
    b = write_report_file(tmp_path / "b.json", report(200.0))
    main(["diff", str(a), str(b)])
    assert "2.00x better" in capsys.readouterr().out


def test_diff_reads_history_dirs(tmp_path, capsys):
    PerfHistory(tmp_path / "h1").record(report(100.0))
    PerfHistory(tmp_path / "h2").record(report(100.0))
    PerfHistory(tmp_path / "h2").record(report(suite="serve", value=5.0))
    code = main(
        ["diff", str(tmp_path / "h1"), str(tmp_path / "h2"), "--exit-code"]
    )
    assert code == 1  # serve series only exists on one side
    assert "+ serve" in capsys.readouterr().out


# ---------------------------------------------------------------- gate


def test_gate_cli_clean_history(tmp_path, capsys):
    history = PerfHistory(tmp_path / "h")
    for value in (100.0, 101.0, 99.0):
        history.record(report(value))
    code = main(["gate", "--history", str(tmp_path / "h"), "--exit-code"])
    assert code == 0
    assert "no regressions" in capsys.readouterr().out


def test_gate_cli_flags_2x_regression(tmp_path, capsys):
    history = PerfHistory(tmp_path / "h")
    for value in (1000.0, 1005.0, 995.0, 500.0):
        history.record(report(value))
    # without --exit-code: report, exit 0 (the diff semantics)
    assert main(["gate", "--history", str(tmp_path / "h")]) == 0
    assert "REGRESSIONS" in capsys.readouterr().out
    assert main(["gate", "--history", str(tmp_path / "h"), "--exit-code"]) == 1


def test_gate_cli_tolerance_and_suite_filters(tmp_path):
    for name, candidate in (("in", 1.01), ("out", 0.99)):
        history = PerfHistory(tmp_path / name)
        for value in (100.0, 100.0, 100.0 / (1.0 + TOLERANCE) * candidate):
            history.record(report(value))
    args = ["gate", "--exit-code", "--history"]
    assert main([*args, str(tmp_path / "in")]) == 0
    assert main([*args, str(tmp_path / "out")]) == 1
    assert main([*args, str(tmp_path / "out"), "--suite", "serve"]) == 0
    # a baseline from another host is gated at a looser bar of its own
    assert main([*args, str(tmp_path / "out"), "--tolerance", "4.0"]) == 0
    assert main([*args, str(tmp_path / "in"), "--tolerance", "0.1"]) == 1


# ---------------------------------------------------------------- flame


def _profile_payload() -> dict:
    return {
        "schema": 1,
        "interval_ms": 5.0,
        "samples": 3,
        "wall_ms": 40.0,
        "rss_peak_kb": 2048,
        "gc_collections": {"gen0": 1},
        "tracemalloc_peak_kb": 128.0,
        "contexts": {"transaction": 2, "": 1},
        "self_ms": [["repro/core/peer.py:Peer.handle", 10.0]],
        "span_wall_ms": [[1, "transaction", 12.5]],
        "stacks": [
            {
                "context": "transaction",
                "frames": ["repro/core/system.py:run", "repro/core/peer.py:Peer.handle"],
                "count": 2,
            },
            {"context": "", "frames": ["repro/obs/plane.py:attach"], "count": 1},
        ],
        "timeline": [[5.0, 0], [10.0, 0], [15.0, 1]],
        "timeline_dropped": 0,
    }


def test_flame_renders_profile_and_exports(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "profile.json").write_text(json.dumps(_profile_payload()))
    collapsed = tmp_path / "out" / "flame.txt"
    chrome = tmp_path / "out" / "trace.json"
    code = main(
        [
            "flame",
            str(bundle),
            "--collapsed",
            str(collapsed),
            "--chrome",
            str(chrome),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "3 samples @ 5ms" in out
    assert "Peer.handle" in out
    assert "transaction=2" in out
    lines = collapsed.read_text().splitlines()
    assert (
        "transaction;repro/core/system.py:run;repro/core/peer.py:Peer.handle 2"
        in lines
    )
    trace = json.loads(chrome.read_text())
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 3
    assert slices[0]["dur"] == 5000.0  # 5ms in trace microseconds


def test_flame_missing_profile_exits_with_hint(tmp_path):
    with pytest.raises(SystemExit, match="no profile"):
        main(["flame", str(tmp_path)])


# ---------------------------------------------------------------- bad input


def usage_error(argv: list[str], capsys) -> str:
    """Exit 2 (not 1, which ``diff --exit-code`` means "differ") with one
    ``hirep-obs:`` line on stderr and no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("hirep-obs: ") and err.count("\n") == 1
    return err


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    history = str(tmp_path / "h")
    for argv in (
        ["diff", str(bad), str(bad), "--exit-code"],
        ["record", str(bad), "--history", history],
    ):
        assert "bad.json: not JSON" in usage_error(argv, capsys)


def test_non_report_object_is_a_usage_error(tmp_path, capsys):
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"x": 1}))
    history = str(tmp_path / "h")
    for argv in (
        ["diff", str(odd), str(odd), "--exit-code"],
        ["record", str(odd), "--history", history],
        ["record", str(GOLDEN_CAMPAIGN), "--history", history],
    ):
        assert "unsupported PerfReport schema" in usage_error(argv, capsys)


def test_diff_refuses_mixed_kinds(tmp_path):
    perf = write_report_file(tmp_path / "r.json", report(1.0))
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "events.jsonl").write_text("")
    for other, refusal in (
        (perf, "cannot diff a campaign report against perf records"),
        (bundle, "cannot diff a telemetry bundle against a campaign report"),
    ):
        for pair in ([GOLDEN_CAMPAIGN, other], [other, GOLDEN_CAMPAIGN]):
            with pytest.raises(SystemExit, match=refusal):
                main(["diff", *map(str, pair)])


def test_diff_of_campaign_reports(tmp_path, capsys):
    golden = json.loads(GOLDEN_CAMPAIGN.read_text())
    golden["scorecards"][0]["metrics"]["mse"] += 1.0
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(golden))
    same = [str(GOLDEN_CAMPAIGN), str(GOLDEN_CAMPAIGN), "--exit-code"]
    assert main(["diff", *same]) == 0
    assert capsys.readouterr().out == "reports are identical\n"
    assert main(["diff", str(GOLDEN_CAMPAIGN), str(tampered)]) == 0
    assert main(["diff", str(GOLDEN_CAMPAIGN), str(tampered), "--exit-code"]) == 1
    assert "clean/hirep: metrics.mse" in capsys.readouterr().out
