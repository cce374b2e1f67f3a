"""§4.2.4 — can a global eavesdropper find the good agents? (extension)

Runs the same workload twice, once with onions disabled (o = 0, every
trust message goes straight to its agent) and once with the configured
onion length, while a global passive wiretap counts per-node traffic.  The
attacker then names the top-k traffic sinks as its DoS target list; we
report its precision against the truly most-popular agents.

Expected shape (the paper's §4.2.4 argument): near-perfect precision
without onions, sharply degraded with them — the relays soak up and
randomize the observable flow.

It stays a function job, not a campaign cell: it rotates requestors 0–19
and attaches the wiretap *after* bootstrap, and a cell would need a spec
field for either.
"""

from __future__ import annotations

from repro.attacks.traffic_analysis import (
    TrafficObserver,
    top_k_precision,
    true_popular_agents,
)
from repro.core.registry import build_system
from repro.experiments.common import ExperimentResult, Series
from repro.workloads.scenarios import default_config

__all__ = ["run"]


def _measure(onion_relays: int, network_size: int, transactions: int, seed: int, k: int) -> float:
    cfg = default_config(network_size=network_size, seed=seed).with_(
        onion_relays=onion_relays,
        trusted_agents=15,
        refill_threshold=10,
        agents_queried=6,
        tokens=8,
    )
    system = build_system("hirep", cfg)
    system.bootstrap()
    observer = TrafficObserver().attach(system)
    # Many different requestors, so agent popularity (not requestor
    # identity) is what shapes the traffic.
    for requestor in range(0, 20):
        system.run(transactions // 20, requestor=requestor)
    actual = true_popular_agents(system, k)
    suspected = observer.suspected_agents(k)
    return top_k_precision(suspected, actual)


def run(
    network_size: int = 250,
    transactions: int = 200,
    seed: int = 2006,
    k: int = 10,
    relay_counts: tuple[int, ...] = (0, 2, 5, 8),
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="traffic_analysis",
        title="Traffic-analysis attacker precision vs onion length",
        x_label="onion relays",
        y_label=f"attacker top-{k} precision",
    )
    xs, ys = [], []
    for relays in relay_counts:
        precision = _measure(relays, network_size, transactions, seed, k)
        xs.append(float(relays))
        ys.append(precision)
    result.series.append(Series(name="precision", x=xs, y=ys))
    result.scalars["precision_no_onion"] = ys[0]
    result.scalars["precision_full_onion"] = ys[-1]
    result.note(
        "paper §4.2.4: onions hide the high-performance agents from traffic "
        "analysis — "
        + ("HOLDS" if ys[-1] <= 0.6 * ys[0] else "VIOLATED")
    )
    result.note(
        "without onions the agents are exposed — "
        + ("HOLDS" if ys[0] >= 0.5 else "VIOLATED")
    )
    return result
