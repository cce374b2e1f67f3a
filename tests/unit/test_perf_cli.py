"""hirep-obs on perf records: record/trend/diff/gate/flame, exit codes.

``diff`` always prints its findings, but a non-zero exit needs
``--exit-code`` — so interactive use never fails a shell.  ``gate``
checks a session's report files against a baseline history and exits 1
on any finding.
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
BASELINE = Path(__file__).resolve().parents[1] / "data" / "perf_baseline"


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


def _gate_args(tmp_path, baseline: list[float], session: float) -> list[str]:
    history = PerfHistory(tmp_path / "h")
    for value in baseline:
        history.record(report(value))
    file = write_report_file(tmp_path / "BENCH_perf.json", report(session))
    return ["gate", str(file), "--history", str(history.root)]


def test_gate_cli_clean_history(tmp_path, capsys):
    assert main(_gate_args(tmp_path, [100.0, 101.0], 99.0)) == 0
    assert "no regressions" in capsys.readouterr().out


def test_gate_cli_flags_2x_regression(tmp_path, capsys):
    # a finding exits 1: there is no flag to opt in
    assert main(_gate_args(tmp_path, [1000.0, 1005.0, 995.0], 500.0)) == 1
    assert "REGRESSIONS" in capsys.readouterr().out


def test_gate_cli_has_no_exit_code_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([*_gate_args(tmp_path, [100.0], 100.0), "--exit-code"])
    assert exc.value.code == 2


def test_gate_cli_refuses_a_duplicated_session_key(tmp_path, capsys):
    args = _gate_args(tmp_path, [100.0], 100.0)
    write_report_file(tmp_path / "BENCH_perf.json", report(100.0), report(90.0))
    assert main(args) == 2
    assert "two session reports" in capsys.readouterr().err


def test_gate_cli_missing_session_file_exits_2(tmp_path, capsys):
    PerfHistory(tmp_path / "h").record(report(100.0))
    missing = str(tmp_path / "BENCH_perf.json")
    assert main(["gate", missing, "--history", str(tmp_path / "h")]) == 2
    assert capsys.readouterr().err.startswith(f"hirep-obs: {missing}: ")


def test_gate_cli_tolerance_and_suite_filters(tmp_path):
    for name, candidate in (("in", 1.01), ("out", 0.99)):
        (tmp_path / name).mkdir()
        args = _gate_args(tmp_path / name, [100.0, 100.0], 100.0 / (1.0 + TOLERANCE) * candidate)
        assert main(args) == (0 if name == "in" else 1)
        assert main([*args, "--suite", "serve"]) == 0
        # a session from another host is gated at a looser bar of its own
        assert main([*args, "--tolerance", "4.0"]) == 0
        assert main([*args, "--tolerance", "0.1"]) == 1


def test_gate_cli_committed_baseline_passes_its_newest_rows(tmp_path, capsys):
    """CI's contract, offline: a session of the committed baseline's
    newest row of every series passes it, with no suite named; without
    the serve-load row, gated on serve-load (as a serve bench that stopped
    recording would leave it), it fails and names the series."""
    baseline = PerfHistory(BASELINE)
    assert len(baseline.suites()) == 7
    newest = [rows[-1] for rows in baseline.series().values()]
    full = write_report_file(tmp_path / "full.json", *newest)
    assert main(["gate", str(full), "--history", str(BASELINE)]) == 0
    assert "43 metric(s) checked" in capsys.readouterr().out  # all 13 series
    lacking = write_report_file(
        tmp_path / "lacking.json", *(r for r in newest if r.suite != "serve-load")
    )
    assert main(["gate", str(lacking), "--history", str(BASELINE), "--suite", "serve-load"]) == 1
    out = capsys.readouterr().out
    assert "MISSING FROM SESSION (1):\n  serve-load N=32 concurrency=4 (small)" in out


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
