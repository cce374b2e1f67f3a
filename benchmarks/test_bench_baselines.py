"""Bench: all-systems comparison table (extension experiment)."""

from repro.experiments import baseline_comparison


def test_bench_baseline_comparison(benchmark, run_once, perf):
    result = run_once(
        baseline_comparison.run, network_size=200, transactions=80
    )
    for key in ("hirep_msgs_per_tx", "voting_msgs_per_tx", "hirep_mse", "voting_mse"):
        benchmark.extra_info[key] = result.scalars[key]
    perf.record(
        "baselines",
        {
            key: result.scalars[key]
            for key in ("hirep_msgs_per_tx", "voting_msgs_per_tx", "hirep_mse", "voting_mse")
        },
        network_size=200,
        transactions=80,
    )
    assert all("HOLDS" in n for n in result.notes), result.notes
    print()
    print(baseline_comparison.render(result))
