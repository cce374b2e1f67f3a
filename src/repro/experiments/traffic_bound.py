"""§4.1 — the analytic traffic bound, verified against measurement.

The paper derives that one transaction's trust-value distribution costs
``2·c·(o_i + o_j)`` messages, where ``c`` is the number of trusted agents
consulted and ``o_i``/``o_j`` the onion lengths of agent and reporter.  In
this implementation both onions have the configured relay count ``o`` and a
delivery through an ``o``-relay onion takes ``o + 1`` hops, so the exact
count is

    c · (o+1)   (requests)  +  c · (o+1)  (responses)  +  c · (o+1) (reports)
    = 3·c·(o+1)

when every asked agent answers and none is evicted or parked at
settlement, against the paper's approximation ``2c(o_i + o_j) = 4·c·o``.
Per leg, a transaction costs ``asked·(o+1)`` requests, ``answered·(o+1)``
responses and ``(o+1)`` reports per answering agent still listed after
settlement.  An answering agent evicted at settlement gets no report: at
seed 502582, N = 28, ``small_world``, C = 6, 5 agents asked and o = 1,
transaction 15 costs 10 + 10 + 8 = 28 messages, not 30.  The
experiment sweeps (c, o), measures actual messages per transaction, and
reports both forms — the point being that traffic is **O(c)**, independent
of network size and degree.  Every (o, c) point is one campaign cell on
``hirep`` (:mod:`repro.campaigns`) with a fixed requestor; its measurement
is the mean of the trace's ``trust_messages``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.experiments.common import ExperimentResult, Series

__all__ = ["run", "plan", "assemble", "exact_messages_per_tx", "paper_bound_per_tx"]


def exact_messages_per_tx(c: int, o: int) -> int:
    """Per-transaction trust traffic in this implementation when all ``c``
    asked agents answer and none is evicted or parked at settlement."""
    return 3 * c * (o + 1)


def paper_bound_per_tx(c: int, o_i: int, o_j: int) -> int:
    """The paper's §4.1 closed form, 2c(o_i + o_j)."""
    return 2 * c * (o_i + o_j)


def plan(
    network_size: int = 300,
    transactions: int = 40,
    seed: int = 2006,
    agents_counts: tuple[int, ...] = (2, 5, 10),
    relay_counts: tuple[int, ...] = (3, 5, 7),
):
    """One ``hirep`` cell per (o, c), relay-count major."""
    from repro.campaigns.specs import Campaign, ScenarioSpec, WorkloadSpec
    from repro.exec.sweeps import SweepPlan

    agents_counts = tuple(agents_counts)
    relay_counts = tuple(relay_counts)
    campaign = Campaign(
        name="traffic_bound",
        scenarios=tuple(
            ScenarioSpec(
                name=f"o={o},c={c}",
                workload=WorkloadSpec(
                    network_size=network_size,
                    transactions=transactions,
                    requestor=0,
                    overrides={
                        "agents_queried": c,
                        "onion_relays": o,
                        "trusted_agents": max(c * 3, 15),
                        "refill_threshold": max(c, 5),
                    },
                ),
            )
            for o in relay_counts
            for c in agents_counts
        ),
        systems=("hirep",),
        seeds=(seed,),
    )
    return SweepPlan(
        specs=campaign.compile(),
        assemble=partial(
            assemble, agents_counts=agents_counts, relay_counts=relay_counts
        ),
    )


def assemble(
    cells: list[dict],
    *,
    agents_counts: tuple[int, ...],
    relay_counts: tuple[int, ...],
) -> ExperimentResult:
    """Fold the cells into measured / exact / paper series per relay count."""
    result = ExperimentResult(
        experiment_id="analysis41",
        title="Traffic bound: measured vs 2c(o_i+o_j)",
        x_label="trusted agents consulted (c)",
        y_label="messages per transaction",
    )
    xs = list(agents_counts)
    remaining = iter(cells)
    for o in relay_counts:
        measured = [
            float(np.mean(next(remaining)["trace"]["trust_messages"]))
            for _ in agents_counts
        ]
        exact = [float(exact_messages_per_tx(c, o)) for c in agents_counts]
        paper = [float(paper_bound_per_tx(c, o, o)) for c in agents_counts]
        result.series.append(Series(name=f"measured(o={o})", x=xs, y=measured))
        result.series.append(Series(name=f"exact(o={o})", x=xs, y=exact))
        result.series.append(Series(name=f"paper(o={o})", x=xs, y=paper))
    # O(c) check: per-tx traffic under the exact model is linear in c.
    holds = all(
        abs(m - e) <= 0.15 * e
        for s_m, s_e in zip(result.series[0::3], result.series[1::3])
        for m, e in zip(s_m.y, s_e.y)
    )
    result.note(
        "measured traffic matches 3c(o+1) within 15% and is O(c) — "
        + ("HOLDS" if holds else "VIOLATED")
    )
    return result


def run(
    network_size: int = 300,
    transactions: int = 40,
    seed: int = 2006,
    agents_counts: tuple[int, ...] = (2, 5, 10),
    relay_counts: tuple[int, ...] = (3, 5, 7),
) -> ExperimentResult:
    return plan(network_size, transactions, seed, agents_counts, relay_counts).run()
