"""Smoke tests of the hirep-e2e harness (sizes / 10; nothing here is a benchmark).

Run explicitly — they are not part of tier-1::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
from harness import HERE, REPO
from tracing import ROOT_CATEGORY

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAMES = [wl.name for wl in harness.WORKLOADS]


def run_cli(*argv: str, script=HERE / "run.py", cwd=REPO, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_benchmark_json_names_the_harness_tables():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert [w["why"] for w in SPEC["workloads"]] == [wl.why for wl in harness.WORKLOADS]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.LAYER_UNITS
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_one_run_prints_every_named_metric_with_its_unit(name, trace):
    done = run_cli("--workload", name, "--seed", "2006", "--seconds", "0.5",
                   "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif name != "serve-inproc":
        # the no-movement prediction: nothing crosses the codec off the live plane
        assert result["metrics"]["core.wire_frames"]["value"] == 0


def test_another_seed_runs_without_a_golden():
    done = run_cli("--workload", "churn-array", "--seed", "7", "--seconds", "0.2", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr


def test_a_corrupted_golden_fails_the_run(tmp_path):
    golden = harness.load_golden()
    key = harness.golden_key(harness.workload("churn-array", smoke=True), 2006)
    golden[key]["sim_digest"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden, sort_keys=True))
    done = run_cli("--workload", "churn-array", "--seconds", "0.2", "--smoke", "--golden", str(path))
    assert done.returncode == 1
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
    assert "golden mismatch" in done.stdout


@pytest.mark.parametrize(
    "name, target",
    [
        ("churn-array", "repro.vector.system.ArrayHiRepSystem.run_transaction"),
        ("serve-inproc", "repro.serve.system.ServeSystem.run_transaction_async"),
    ],
)
def test_a_lost_transaction_is_counted_as_failed(monkeypatch, name, target):
    module, cls, method = target.rsplit(".", 2)
    owner = getattr(__import__(module, fromlist=[cls]), cls)
    original = getattr(owner, method)
    calls = {"n": 0}

    def flaky(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("seeded loss")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, method, flaky)
    m = harness.measure(harness.workload(name, smoke=True), 2006, 0.0, min_rounds=1)
    assert m.failed == 1
    assert any("failed" in problem for problem in harness.check(m, None))


@pytest.mark.parametrize("name", ["paper-object", "churn-array", "serve-inproc"])
def test_self_times_and_other_add_up_to_the_traced_total(name):
    from repro.core.peer import HiRepPeer

    untouched = HiRepPeer.settle_transaction
    wl = harness.workload(name, smoke=True)
    reference, traced, tracer = harness.measure_traced(wl, 2006, 0.3)
    assert HiRepPeer.settle_transaction is untouched  # wrappers are gone again
    assert reference.sim == traced.sim

    metrics = {k: v["value"] for k, v in harness.layer_metrics(reference, traced, tracer).items()}
    self_s = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_s + metrics["trace.other_s"] == pytest.approx(metrics["trace.total_s"], rel=1e-9)

    rounds = len(traced.rounds)
    weights = {"setup": 1 / rounds, "teardown": 1 / rounds,
               "run": wl.nominal_tx / wl.round_tx / rounds}
    roots = tracer.recorder.roots()
    assert {span.category for span in roots} == {ROOT_CATEGORY}
    by_hand = sum(weights[span.name] * span.duration_ms for span in roots) / 1000.0
    assert metrics["trace.total_s"] == pytest.approx(by_hand, rel=1e-9)
    assert 0 < metrics["trace.other_s"] < metrics["trace.total_s"]


def test_a_directory_with_only_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = run_cli("--workload", "serve-inproc", "--seed", "1", "--seconds", "1", "--trace", "0",
                   script=tmp_path / "benchmarks" / "e2e" / "run.py", cwd=tmp_path, env=env)
    assert done.returncode != 0
    assert not done.stdout.strip()
