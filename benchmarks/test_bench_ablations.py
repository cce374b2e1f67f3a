"""Bench: design-choice ablations (extension experiment)."""

from repro.experiments import ablations


def test_bench_ablations(benchmark, run_once, scale, perf):
    result = run_once(ablations.run, **scale["ablations"])
    assert all("HOLDS" in n for n in result.notes), result.notes
    perf.record(
        "ablations",
        {name: result.scalars[name] for name in result.scalars},
        network_size=scale["ablations"]["network_size"],
    )
    print()
    print(ablations.render(result))
