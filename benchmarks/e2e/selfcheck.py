"""hirep-e2e self-check: is the benchmark steady enough to gate on its own bounds?

    python3 benchmarks/e2e/selfcheck.py [--runs 10] [--seconds 6] [--smoke]

Runs the set twice on the same code, the way the benchmark's driver judges
it: ``--runs`` runs per workload, each with another seed, the same seeds
in both sets.  For every workload and end-to-end metric it prints each
set's median, its spread (distance between the quartiles over the median)
and how much worse the second median is than the first, next to the bound
from BENCHMARK.json — so bounds are set from what this prints, not guessed.

Exit status is non-zero when a run is incorrect, when one seed's simulated
statistics differ between the two sets, when a spread (``setup_s``
excepted) exceeds its bound, or when a second median is worse than the
first by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
from harness import HERE, REPO
from run import summarise


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10, help="runs (= seeds) per workload and set")
    p.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed + i")
    p.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", default=str(HERE / "out" / "selfcheck"))
    cli = p.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seeds = [cli.seed + i for i in range(cli.runs)]
    sets = []
    problems: list[str] = []
    for label in ("set1", "set2"):
        print(f"{label}: {cli.runs} runs per workload, seeds {seeds[0]}..{seeds[-1]}", flush=True)
        args = run.parser().parse_args(
            ["--seconds", str(cli.seconds), "--out", str(Path(cli.out) / label)]
            + (["--smoke"] if cli.smoke else [])
        )
        runs, found = run.run_set(args, seeds)
        sets.append(runs)
        problems += [f"{label}: {problem}" for problem in found]

    first, second = sets
    for name in first:
        for a, b in zip(first[name], second[name]):
            if a["sim"] != b["sim"]:
                problems.append(f"{name} seed {a['seed']}: sets disagree: {a['sim']} vs {b['sim']}")
        print(f"\n{name}")
        print(f"  {'metric':<20} {'median 1':>12} {'spread 1':>9} {'median 2':>12} {'spread 2':>9} {'worse by':>9} {'bound':>6}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            stats = []
            for runs in (first, second):
                median, q1, q3 = summarise([r["result"]["metrics"][key]["value"] for r in runs[name]])
                stats.append((median, (q3 - q1) / median))
            (m1, s1), (m2, s2) = stats
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            print(f"  {key:<20} {m1:>12.6g} {s1:>9.2%} {m2:>12.6g} {s2:>9.2%} {worse:>+9.2%} {bound:>6.0%}")
            if key != "setup_s" and max(s1, s2) > bound:
                problems.append(f"{name} {key}: spread {max(s1, s2):.2%} exceeds bound {bound:.0%}")
            if worse > bound:
                problems.append(f"{name} {key}: second median worse by {worse:.2%}, bound {bound:.0%}")

    print()
    for problem in problems:
        print(f"FAILED: {problem}")
    if not problems:
        print("steady: every spread and every median difference is within its bound")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
