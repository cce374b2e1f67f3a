"""hirep-e2e: run the benchmark and print every metric by name and unit.

Two modes, one program::

    python3 benchmarks/e2e/run.py                      # the whole set
    python3 benchmarks/e2e/run.py --workload W ...     # one run, in this process

*One run* is what BENCHMARK.json's ``command`` starts: it measures workload
``W`` for ``--seconds``, checks the outputs, prints the metrics and ends
with one JSON object ``{"correct", "attempted", "failed", "metrics"}`` —
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Exit status is non-zero when the outputs are not correct.

*The set* runs every workload ``--repeats`` times, each run in a fresh
subprocess with ``PYTHONHASHSEED=0``, repeats interleaved round-robin
across workloads, then (``--trace 1``) one traced run per workload, then
the kernel-parity check; it prints medians with quartiles and writes
``repro.perf`` reports under ``--out``.

``--regen-golden`` rewrites golden.json from what was measured instead of
checking against it.  It is for the PR that changes the benchmark only: a
change to ``src/`` that needs it has changed a simulated statistic.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

import harness
from harness import HERE, REPO, WORKLOADS, Measurement, Workload

import numpy as np

from repro.perf.history import PerfHistory
from repro.perf.report import PerfReport, current_git_sha

DEFAULT_SECONDS = 12.0
DEFAULT_SEED = 2006
CHILD_TIMEOUT_S = 600


def envelope() -> dict[str, Any]:
    """Where and under what load this run happened."""
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": current_git_sha(str(REPO)),
        "load1": load1,
        # A neighbour's load moves wall-clock metrics (serve p50 most of
        # all); flag the run instead of silently recording it.
        "noisy": load1 > nproc,
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def _update_golden(path: Path, m: Measurement) -> None:
    golden = harness.load_golden(path) if path.exists() else {}
    golden[harness.golden_key(m.workload, m.seed)] = m.sim
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def run_one(args: argparse.Namespace) -> int:
    wl = harness.workload(args.workload, smoke=args.smoke)
    env = envelope()
    golden_path = Path(args.golden)
    golden = None if args.regen_golden else harness.load_golden(golden_path)

    tracer = None
    if args.trace:
        reference, m, tracer = harness.measure_traced(wl, args.seed, args.seconds)
        metrics = harness.layer_metrics(reference, m, tracer)
        problems = harness.check(m, golden)
        if reference.sim != m.sim:
            problems.append(f"tracing changed the simulated outcomes: {reference.sim} vs {m.sim}")
    else:
        m = harness.measure(wl, args.seed, args.seconds)
        metrics = harness.e2e_metrics(m)
        problems = harness.check(m, golden)
        if args.regen_golden:
            _update_golden(golden_path, m)

    result = {
        "correct": not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    if args.detail:
        detail = {
            "workload": wl.name,
            "executor": wl.executor,
            "network_size": wl.network_size,
            "nominal_tx": wl.nominal_tx,
            "seed": args.seed,
            "envelope": env,
            "sim": m.sim,
            # raw wall ms and the host slowdown sampled around each piece
            "rounds": [
                [(piece.wall_ms, piece.slowdown) for piece in (r.setup, *r.batches, r.teardown)]
                for r in m.rounds
            ],
            "problems": problems,
            "result": result,
        }
        Path(args.detail).write_text(json.dumps(detail, sort_keys=True) + "\n")
        if tracer is not None:
            with open(args.detail + ".spans.jsonl", "w") as fh:
                for span in tracer.recorder.spans():
                    row = [span.span_id, span.parent_id, span.name, span.start_ms, span.end_ms]
                    fh.write(json.dumps(row) + "\n")

    flag = "  [noisy: load %.1f > %d cpus]" % (env["load1"], env["nproc"]) if env["noisy"] else ""
    print(f"{wl.name}  seed={args.seed}  executor={wl.executor}  N={wl.network_size}{flag}")
    for name, metric in metrics.items():
        if metric["value"] or not args.trace:  # a traced run lists only the layers it touched
            print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_share':<32} {m.failed / m.attempted:>14.6g} 1   ({m.failed}/{m.attempted})")
    print(f"  sim_digest {m.sim['sim_digest']}  ({len(m.rounds)} rounds)")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# The set
# ---------------------------------------------------------------------------


def _child(wl: Workload, seed: int, trace: int, args: argparse.Namespace, tag: str) -> dict[str, Any]:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    detail = out / f"{wl.name}.{tag}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", wl.name, "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--golden", args.golden, "--detail", str(detail),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    if args.regen_golden and not trace:
        command.append("--regen-golden")
    done = subprocess.run(
        command,
        cwd=REPO,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if not detail.exists():
        raise SystemExit(
            f"{wl.name} ({tag}) produced no result, exit {done.returncode}:\n{done.stderr}"
        )
    return json.loads(detail.read_text())


def summarise(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def run_set(args: argparse.Namespace, seeds: list[int]) -> tuple[dict[str, list[dict[str, Any]]], list[str]]:
    """Run every workload once per seed, round-robin; returns (runs, problems)."""
    workloads = [harness.workload(wl.name, smoke=args.smoke) for wl in WORKLOADS]
    runs: dict[str, list[dict[str, Any]]] = {wl.name: [] for wl in workloads}
    problems: list[str] = []
    for index, seed in enumerate(seeds):
        for wl in workloads:
            detail = _child(wl, seed, 0, args, f"seed{seed}.run{index}")
            runs[wl.name].append(detail)
            noisy = "  [noisy]" if detail["envelope"]["noisy"] else ""
            print(f"  run {index + 1}/{len(seeds)}  {wl.name:<16} seed={seed}{noisy}", flush=True)
            problems += [f"{wl.name} seed {seed}: {p}" for p in detail["problems"]]
    # repeats of one seed must agree bit for bit on every simulated statistic
    for name, details in runs.items():
        by_seed: dict[int, dict[str, Any]] = {}
        for detail in details:
            first = by_seed.setdefault(detail["seed"], detail["sim"])
            if detail["sim"] != first:
                problems.append(f"{name} seed {detail['seed']}: repeats disagree: {first} vs {detail['sim']}")
    return runs, problems


def parity_problems(runs: dict[str, list[dict[str, Any]]], smoke: bool) -> list[str]:
    """``paper-object`` must equal an array-kernel run of the same config."""
    wl = harness.workload("paper-object", smoke=smoke)
    detail = runs[wl.name][0]
    array = harness.measure(replace(wl, executor="hirep-array"), detail["seed"], 0.0, min_rounds=1)
    if array.sim == detail["sim"]:
        return []
    return [f"kernel parity: hirep {detail['sim']} != hirep-array {array.sim}"]


def print_table(title: str, runs: list[dict[str, Any]]) -> dict[str, float]:
    """Print one workload's metrics (median [q1, q3] over the runs); returns the medians."""
    print(f"\n{title}")
    medians: dict[str, float] = {}
    for name, metric in runs[0]["result"]["metrics"].items():
        median, q1, q3 = summarise([run["result"]["metrics"][name]["value"] for run in runs])
        medians[name] = median
        if len(runs) > 1:
            print(f"  {name:<32} {median:>14.6g} {metric['unit']:<6} [{q1:.6g}, {q3:.6g}] n={len(runs)}")
        elif median:  # a single traced run: list only the layers it touched
            print(f"  {name:<32} {median:>14.6g} {metric['unit']}")
    return medians


def run_all(args: argparse.Namespace) -> int:
    env = envelope()
    print(f"hirep-e2e  {json.dumps(env, sort_keys=True)}")
    runs, problems = run_set(args, [args.seed] * args.repeats)
    traced: dict[str, dict[str, Any]] = {}
    if args.trace:
        for wl in WORKLOADS:
            traced[wl.name] = _child(
                harness.workload(wl.name, smoke=args.smoke), args.seed, 1, args, "traced"
            )
            problems += [f"{wl.name} traced: {p}" for p in traced[wl.name]["problems"]]
    problems += parity_problems(runs, args.smoke)

    history = PerfHistory(Path(args.out) / "perf")
    for name, details in runs.items():
        first = details[0]
        failed = sum(d["result"]["failed"] for d in details)
        attempted = sum(d["result"]["attempted"] for d in details)
        medians = print_table(
            f"{name}  (end to end, {first['executor']}, N={first['network_size']})", details
        )
        print(f"  {'failed_share':<32} {failed / attempted:>14.6g} 1      ({failed}/{attempted})")
        print(f"  sim_digest {first['sim']['sim_digest']}")
        if name in traced:
            medians.update(print_table(f"{name}  (per layer, one nominal run)", [traced[name]]))
        history.record(
            PerfReport(
                suite="e2e",
                metrics=medians,
                backend=first["executor"],
                network_size=first["network_size"],
                transactions=first["nominal_tx"],
                opts={"workload": name, "seed": args.seed, "runs": len(details),
                      "noisy": any(d["envelope"]["noisy"] for d in details)},
                scale="smoke" if args.smoke else "full",
                git_sha=env["git_sha"],
            )
        )
    print(f"\nperf reports appended to {history.root}/e2e.jsonl")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    return 1 if problems else 0


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[wl.name for wl in WORKLOADS],
                   help="measure this one workload in this process (default: the whole set)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="measure whole rounds for at least this long (and at least 3 rounds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--smoke", action="store_true", help="sizes / 10, for the harness tests")
    p.add_argument("--repeats", type=int, default=3, help="runs per workload in the set")
    p.add_argument("--out", default=str(HERE / "out"), help="where the set writes its files")
    p.add_argument("--golden", default=str(harness.GOLDEN_PATH))
    p.add_argument("--regen-golden", action="store_true", help="benchmark-PR only; see above")
    p.add_argument("--detail", help="also write this run's samples and envelope here")
    return p


def main(argv: list[str] | None = None) -> int:
    args = parser().parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash randomisation moves dict/set layouts, and with them timings.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, sys.orig_argv)
    sys.exit(main())
