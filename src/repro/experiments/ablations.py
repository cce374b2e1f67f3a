"""Design-choice ablations (extension; the choices DESIGN.md calls out).

Each ablation isolates one mechanism:

* ``tokens``   — discovery reply volume vs token budget (bounded replies are
  the point of the token scheme);
* ``ttl``      — discovery reach vs TTL;
* ``alpha``    — expertise EWMA responsiveness: how many transactions until
  a poor agent is evicted;
* ``theta``    — eviction threshold vs trained accuracy and convergence;
* ``merge``    — the paper's max-rank recommendation merge vs a mean merge
  under a bad-mouthing attack (max must resist, mean must suffer);
* ``backup``   — churn tolerance with and without the backup agent cache;
* ``onion``    — response time and traffic vs onion length (anonymity cost).
"""

from __future__ import annotations

import numpy as np

from repro.core.discovery import discover_agent_lists
from repro.core.ranking import rank_within_list, reply_block, select_agents
from repro.core.registry import build_system
from repro.core.system import HiRepSystem
from repro.experiments.common import ExperimentResult, Series
from repro.net.churn import ChurnModel
from repro.workloads.scenarios import default_config

__all__ = ["run", "plan", "ablation_job", "assemble_ablations", "ABLATIONS", "main"]


def _cfg(network_size: int, seed: int, **kw):
    base = default_config(network_size=network_size, seed=seed).with_(
        trusted_agents=20,
        refill_threshold=12,
        agents_queried=8,
        tokens=8,
        onion_relays=3,
    )
    return base.with_(**kw)


def _trained_mse(system: HiRepSystem, transactions: int = 150) -> float:
    system.bootstrap()
    system.reset_metrics()
    system.run(transactions, requestor=0)
    return system.mse.tail_mse(40)


def ablate_tokens(network_size: int, seed: int) -> Series:
    """Discovery replies are bounded by the token budget, not the overlay."""
    xs, ys = [], []
    for tokens in (2, 4, 8, 16):
        system = build_system("hirep", _cfg(network_size, seed, tokens=tokens))
        outcome = discover_agent_lists(
            system.topology,
            0,
            tokens,
            system.config.ttl,
            rng=np.random.default_rng(seed),
            has_list=lambda n: False,
            self_offer=lambda n: system.self_entry_for(n) is not None,
            online=system.network.is_online,
        )
        xs.append(float(tokens))
        ys.append(float(len(outcome.responders)))
    return Series(name="discovery_replies_vs_tokens", x=xs, y=ys)


def ablate_ttl(network_size: int, seed: int) -> Series:
    """Discovery reach (distinct repliers) vs TTL at a fixed token budget."""
    xs, ys = [], []
    system = build_system("hirep", _cfg(network_size, seed))
    for ttl in (1, 2, 3, 5):
        outcome = discover_agent_lists(
            system.topology,
            0,
            16,
            ttl,
            rng=np.random.default_rng(seed),
            has_list=lambda n: False,
            self_offer=lambda n: system.self_entry_for(n) is not None,
            online=system.network.is_online,
        )
        xs.append(float(ttl))
        ys.append(float(len(outcome.responders)))
    return Series(name="discovery_replies_vs_ttl", x=xs, y=ys)


def ablate_alpha(network_size: int, seed: int) -> Series:
    """Transactions until a poor agent falls below θ=0.4, per α."""
    from repro.core.expertise import ExpertiseTracker

    xs, ys = [], []
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        tracker = ExpertiseTracker(alpha=alpha, value=1.0)
        steps = tracker.steps_to_evict(0.4)
        xs.append(alpha)
        ys.append(float(steps))
    return Series(name="evict_steps_vs_alpha", x=xs, y=ys)


def ablate_theta(network_size: int, seed: int) -> Series:
    """Trained MSE per eviction threshold."""
    xs, ys = [], []
    for theta in (0.2, 0.4, 0.6, 0.8):
        system = build_system("hirep", _cfg(network_size, seed, eviction_threshold=theta))
        xs.append(theta)
        ys.append(_trained_mse(system))
    return Series(name="trained_mse_vs_theta", x=xs, y=ys)


def ablate_merge(network_size: int, seed: int) -> tuple[Series, str]:
    """Max-rank vs mean-rank merge under bad-mouthing.

    A single honest list recommends the good agent at top weight; many
    attacker lists bad-mouth it with weight 0.  Max-rank keeps it on top;
    mean-rank buries it.
    """
    system = build_system("hirep", _cfg(network_size, seed))
    good_ip = system.good_agent_ips()[0]
    poor_ips = system.poor_agent_ips()[:3]
    agents = [good_ip, *poor_ips]  # column ids: the agents' host ips
    honest_list = [1.0] + [0.2] * len(poor_ips)
    attack_list = [0.0] + [1.0] * len(poor_ips)
    lists = [honest_list] + [attack_list] * 10
    wanted = 2
    ids, weights, lens = reply_block([agents] * len(lists), lists)
    ranks = rank_within_list(weights, lens, wanted)
    rng = np.random.default_rng(seed)
    picked = {}
    for merge in ("max", "mean"):
        replies, rows = select_agents(ids, ranks, wanted, rng, merge=merge)
        picked[merge] = ids[replies, rows].tolist()
    good_in_max = good_ip in picked["max"]
    good_in_mean = good_ip in picked["mean"]
    series = Series(
        name="good_agent_selected",
        x=[0.0, 1.0],  # 0 = max merge, 1 = mean merge
        y=[float(good_in_max), float(good_in_mean)],
    )
    verdict = (
        "max-rank merge resists bad-mouthing — "
        + ("HOLDS" if good_in_max and not good_in_mean else
           ("HOLDS (weakly: mean also survived)" if good_in_max else "VIOLATED"))
    )
    return series, verdict


def ablate_backup(network_size: int, seed: int) -> tuple[Series, str]:
    """Churn tolerance with vs without the backup agent cache."""
    results = []
    for backup in (0, 20):
        cfg = _cfg(network_size, seed, backup_cache_size=backup)
        churn = ChurnModel(leave_prob=0.05, rejoin_prob=0.4, protected={0})
        system = build_system("hirep", cfg, churn=churn)
        system.bootstrap()
        system.reset_metrics()
        system.run(150, requestor=0)
        discovery = system.counter.by_category.get("agent_discovery", 0)
        results.append((backup, system.mse.tail_mse(40), float(discovery)))
    series = Series(
        name="discovery_msgs_vs_backup",
        x=[float(r[0]) for r in results],
        y=[r[2] for r in results],
    )
    verdict = (
        "backup cache reduces rediscovery traffic under churn — "
        + ("HOLDS" if results[1][2] <= results[0][2] else "VIOLATED")
    )
    return series, verdict


def ablate_onion(network_size: int, seed: int) -> Series:
    """Per-transaction trust traffic vs onion length (anonymity's price)."""
    xs, ys = [], []
    for relays in (0, 2, 4, 8):
        system = build_system("hirep", _cfg(network_size, seed, onion_relays=relays))
        system.bootstrap()
        system.reset_metrics()
        system.run(30, requestor=0)
        per_tx = float(np.mean([o.trust_messages for o in system.outcomes]))
        xs.append(float(relays))
        ys.append(per_tx)
    return Series(name="trust_msgs_vs_onion_len", x=xs, y=ys)


#: ablation name -> measuring function, in the figure's display order.
#: Each is independent (own systems, own seed-derived RNGs), which is
#: what lets the orchestrator run them as sibling jobs.
ABLATIONS = {
    "tokens": ablate_tokens,
    "ttl": ablate_ttl,
    "alpha": ablate_alpha,
    "theta": ablate_theta,
    "merge": ablate_merge,
    "backup": ablate_backup,
    "onion": ablate_onion,
}


def ablation_job(kind: str, network_size: int = 250, seed: int = 2006) -> dict:
    """Run one ablation and return a JSON-able ``{"series", "note"}``.

    The picklable per-job entry point: worker processes call this by
    import path, so the payload must survive a JSON round-trip.
    """
    measured = ABLATIONS[kind](network_size, seed)
    note = None
    if isinstance(measured, tuple):
        measured, note = measured
    return {
        "series": {"name": measured.name, "x": list(map(float, measured.x)),
                   "y": list(map(float, measured.y))},
        "note": note,
    }


def assemble_ablations(values: list[dict]) -> ExperimentResult:
    """Fold per-ablation payloads (in ``ABLATIONS`` order) into the figure."""
    result = ExperimentResult(
        experiment_id="ablations",
        title="Design-choice ablations",
        x_label="(per series)",
        y_label="(per series)",
    )
    for value in values:
        s = value["series"]
        result.series.append(Series(name=s["name"], x=list(s["x"]), y=list(s["y"])))
        if s["name"] == "discovery_replies_vs_ttl":
            result.note(
                "discovery reach is non-decreasing in TTL — "
                + ("HOLDS" if s["y"] == sorted(s["y"]) else "VIOLATED")
            )
        if value["note"]:
            result.note(value["note"])
    onion = result.get("trust_msgs_vs_onion_len")
    result.note(
        "trust traffic grows linearly with onion length — "
        + ("HOLDS" if onion.y == sorted(onion.y) else "VIOLATED")
    )
    return result


def plan(network_size: int = 250, seed: int = 2006):
    """One orchestrator job per ablation; assembles the serial result."""
    from repro.exec.job import JobSpec
    from repro.exec.sweeps import SweepPlan

    specs = [
        JobSpec(
            module=__name__,
            func="ablation_job",
            kwargs={"kind": kind, "network_size": network_size, "seed": seed},
            label=f"ablations[{kind}]",
        )
        for kind in ABLATIONS
    ]
    return SweepPlan(specs=specs, assemble=assemble_ablations)


def run(network_size: int = 250, seed: int = 2006) -> ExperimentResult:
    return plan(network_size, seed).run()


def main() -> str:
    result = run()
    # The shared render() assumes a common x axis; ablations print per-series.
    lines = [f"== {result.experiment_id}: {result.title} =="]
    for series in result.series:
        pairs = ", ".join(f"{x:g}->{y:.4g}" for x, y in zip(series.x, series.y))
        lines.append(f"  {series.name}: {pairs}")
    for note in result.notes:
        lines.append(f"  note: {note}")
    text = "\n".join(lines)
    print(text)
    return text


if __name__ == "__main__":
    main()
