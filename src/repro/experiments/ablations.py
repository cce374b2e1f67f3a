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

``tokens``, ``ttl``, ``alpha`` and ``merge`` each measure one mechanism
without a run, so they stay function jobs: a campaign cell would need a
spec field to express them.  ``theta``, ``backup`` and ``onion`` are
runs: one campaign cell per swept value (:mod:`repro.campaigns`), read
off the cell's trace.
"""

from __future__ import annotations

import numpy as np

from repro.core.discovery import discover_agent_lists
from repro.core.ranking import rank_within_list, reply_block, select_agents
from repro.core.registry import build_system
from repro.experiments.common import ExperimentResult, Series, squared_errors
from repro.workloads.scenarios import REDUCED_LISTS, default_config

__all__ = [
    "run",
    "plan",
    "ablation_job",
    "assemble_ablations",
    "render",
    "ABLATIONS",
]

#: the reduced lists and token budget every ablation starts from.
OVERRIDES = {**REDUCED_LISTS, "tokens": 8}


def _cfg(network_size: int, seed: int, **kw):
    return default_config(network_size=network_size, seed=seed).with_(
        **{**OVERRIDES, **kw}
    )


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


def ablate_merge(network_size: int, seed: int) -> Series:
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
    ids, weights, lens = reply_block(
        agents * len(lists), [w for lst in lists for w in lst], [len(agents)] * len(lists)
    )
    ranks = rank_within_list(weights, lens, wanted)
    rng = np.random.default_rng(seed)
    picked = {}
    for merge in ("max", "mean"):
        replies, rows = select_agents(ids, ranks, wanted, rng, merge=merge)
        picked[merge] = ids[replies, rows].tolist()
    return Series(
        name="good_agent_selected",
        x=[0.0, 1.0],  # 0 = max merge, 1 = mean merge
        y=[float(good_ip in picked["max"]), float(good_ip in picked["mean"])],
    )


def _tail_mse(cell: dict) -> float:
    return float(np.mean(squared_errors(cell)[-40:]))


def _discovery_msgs(cell: dict) -> float:
    return float(cell["trace"]["by_category"].get("agent_discovery", 0))


def _trust_msgs_per_tx(cell: dict) -> float:
    return float(np.mean(cell["trace"]["trust_messages"]))


#: function ablations: name -> measuring function.  Each builds its own
#: system and seed-derived RNGs, so they run as sibling jobs.
FUNCTIONS = {
    "tokens": ablate_tokens,
    "ttl": ablate_ttl,
    "alpha": ablate_alpha,
    "merge": ablate_merge,
}

#: run ablations: name -> (series, config knob, swept values, transactions,
#: churn leave probability, reading of one cell).  One campaign cell per
#: swept value on ``hirep``, requestor 0.
SWEEPS = {
    "theta": (
        "trained_mse_vs_theta", "eviction_threshold", (0.2, 0.4, 0.6, 0.8), 150, 0.0,
        _tail_mse,
    ),
    "backup": (
        "discovery_msgs_vs_backup", "backup_cache_size", (0, 20), 150, 0.05,
        _discovery_msgs,
    ),
    "onion": (
        "trust_msgs_vs_onion_len", "onion_relays", (0, 2, 4, 8), 30, 0.0,
        _trust_msgs_per_tx,
    ),
}

#: every ablation, in the figure's display order.
ABLATIONS = ("tokens", "ttl", "alpha", "theta", "merge", "backup", "onion")


def ablation_job(kind: str, network_size: int = 250, seed: int = 2006) -> dict:
    """Run one function ablation and return its JSON-able series.

    The picklable per-job entry point: worker processes call this by
    import path, so the payload must survive a JSON round-trip.
    """
    measured = FUNCTIONS[kind](network_size, seed)
    return {
        "name": measured.name,
        "x": list(map(float, measured.x)),
        "y": list(map(float, measured.y)),
    }


def _verdict(name: str, y: list[float]) -> str | None:
    """The claim a series checks, if any."""
    if name == "discovery_replies_vs_ttl":
        return "discovery reach is non-decreasing in TTL — " + (
            "HOLDS" if y == sorted(y) else "VIOLATED"
        )
    if name == "good_agent_selected":
        good_in_max, good_in_mean = y
        return "max-rank merge resists bad-mouthing — " + (
            "HOLDS" if good_in_max and not good_in_mean else
            ("HOLDS (weakly: mean also survived)" if good_in_max else "VIOLATED")
        )
    if name == "discovery_msgs_vs_backup":
        return "backup cache reduces rediscovery traffic under churn — " + (
            "HOLDS" if y[1] <= y[0] else "VIOLATED"
        )
    if name == "trust_msgs_vs_onion_len":
        return "trust traffic grows linearly with onion length — " + (
            "HOLDS" if y == sorted(y) else "VIOLATED"
        )
    return None


def assemble_ablations(values: list[dict]) -> ExperimentResult:
    """Fold function-job series and campaign cells (in :func:`plan` order)
    into the figure."""
    result = ExperimentResult(
        experiment_id="ablations",
        title="Design-choice ablations",
        x_label="(per series)",
        y_label="(per series)",
    )
    values = iter(values)
    for kind in ABLATIONS:
        if kind in FUNCTIONS:
            series = Series(**next(values))
        else:
            name, _knob, xs, _transactions, _leave, read = SWEEPS[kind]
            series = Series(
                name=name, x=[float(x) for x in xs], y=[read(next(values)) for _ in xs]
            )
        result.series.append(series)
        verdict = _verdict(series.name, series.y)
        if verdict:
            result.note(verdict)
    return result


def plan(network_size: int = 250, seed: int = 2006):
    """A job per function ablation and a campaign cell per swept value,
    in display order."""
    from repro.campaigns.specs import Campaign, ChurnSpec, ScenarioSpec, WorkloadSpec
    from repro.exec.job import JobSpec
    from repro.exec.sweeps import SweepPlan

    specs: list[JobSpec] = []
    for kind in ABLATIONS:
        if kind in FUNCTIONS:
            specs.append(
                JobSpec(
                    module=__name__,
                    func="ablation_job",
                    kwargs={"kind": kind, "network_size": network_size, "seed": seed},
                    label=f"ablations[{kind}]",
                )
            )
            continue
        _name, knob, xs, transactions, leave, _read = SWEEPS[kind]
        campaign = Campaign(
            name=f"ablations-{kind}",
            scenarios=tuple(
                ScenarioSpec(
                    name=f"{knob}={x:g}",
                    workload=WorkloadSpec(
                        network_size=network_size,
                        transactions=transactions,
                        overrides={**OVERRIDES, knob: x},
                    ),
                    churn=ChurnSpec(leave_prob=leave, rejoin_prob=0.4),
                )
                for x in xs
            ),
            systems=("hirep",),
            seeds=(seed,),
        )
        specs.extend(campaign.compile())
    return SweepPlan(specs=specs, assemble=assemble_ablations)


def run(network_size: int = 250, seed: int = 2006) -> ExperimentResult:
    return plan(network_size, seed).run()


def render(result: ExperimentResult) -> str:
    """One line per series: the shared ``render()`` assumes a common x axis."""
    lines = [f"== {result.experiment_id}: {result.title} =="]
    for series in result.series:
        pairs = ", ".join(f"{x:g}->{y:.4g}" for x, y in zip(series.x, series.y))
        lines.append(f"  {series.name}: {pairs}")
    lines.extend(f"  note: {note}" for note in result.notes)
    return "\n".join(lines)
