"""Property test: a loss × crash cell through the campaign route against the
hand-wired cell it replaced.

The ``degradation`` experiment used to build every cell itself: the
extension-sweep config plus the deadline plane, a ``FaultPlane`` over the
``FaultSpec``'s models seeded ``seed + 17`` and installed before bootstrap
(the requestor, peer 0, spared from crash windows), then ``run(T,
requestor=0)`` and four reads.  That cell is kept here, as
:func:`hand_wired`, and is the oracle.  The experiment is now a list of
campaign scenarios (``degradation.plan()`` is ``Campaign.compile()``, the
cells run ``campaign_cell`` and the result is read off their scorecards);
hypothesis picks N, T, two loss rates, the crash fraction and the seed,
and the experiment's two-cell result must equal the oracles' mse,
coverage and retries per transaction, and its ``fault_*`` scalars the
counters of the last cell that had a fault plane, exactly.

Precondition: T ≥ 30.  The old cell's tail window was ``max(T // 3, 10)``,
the scorecard's is ``max(T // 3, min(5, T))``; they agree from T = 30 on
(both ``--scale`` settings run T = 40 and 120), and below it the
experiment's MSE reads the scorecard's shorter window.

Shown to fail under each of these seeded mutations: the cell's plane
seeded ``seed + 18``; the scorecard's tail window one longer;
``success_rate`` counting ``answered > 1``; retries divided by ``T + 1``;
the experiment's overrides with ``agent_miss_limit`` 2, with ``tokens``
dropped, or with a 2 500 ms deadline; ``assemble`` reading
``drops_per_tx`` for retries; ``assemble`` keeping the first faulted
cell's stats instead of the last.  Two mutations survive because
they change nothing: an empty crash-exclude set (crash victims are drawn
from ``range(1, N, stride)``, so peer 0, the requestor, never is one) and
the plane installed after bootstrap instead of before (protocol bootstrap
sends nothing through ``network.send`` and leaves the clock at 0).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns.specs import FaultSpec
from repro.core.registry import build_system
from repro.experiments import degradation
from repro.net.faults import FaultPlane
from repro.workloads.scenarios import default_config


def hand_wired(network_size, transactions, loss, crash_fraction, seed):
    """One loss × crash cell, built the way the experiment used to."""
    cfg = default_config(network_size=network_size, seed=seed).with_(
        trusted_agents=20,
        refill_threshold=12,
        agents_queried=8,
        tokens=8,
        onion_relays=3,
        query_timeout_ms=2_000.0,
        max_query_retries=2,
        agent_miss_limit=3,
    )
    models = FaultSpec(loss=loss, crash_fraction=crash_fraction).build_models(
        network_size, exclude={0}
    )
    plane = FaultPlane(models, seed=seed + 17) if models else None
    system = build_system("hirep", cfg)
    if plane is not None:
        plane.install(system.network)
    system.bootstrap()
    system.reset_metrics()
    system.run(transactions, requestor=0)
    return {
        "mse": float(system.mse.tail_mse(max(transactions // 3, 10))),
        "coverage": float(np.mean([o.answered > 0 for o in system.outcomes])),
        "retries_per_tx": system.retry_stats()["retries_sent"] / transactions,
        "fault_stats": plane.stats.as_dict() if plane is not None else None,
    }


LOSS = st.one_of(st.just(0.0), st.floats(0.01, 0.5))


@settings(max_examples=12, deadline=None)
@given(
    network_size=st.integers(30, 90),
    transactions=st.integers(30, 45),
    losses=st.lists(LOSS, min_size=2, max_size=2, unique=True),
    crash_fraction=st.one_of(st.just(0.0), st.floats(0.01, 0.4)),
    seed=st.integers(0, 2**31 - 1),
)
def test_campaign_fault_cells_read_what_the_hand_wired_cells_read(
    network_size, transactions, losses, crash_fraction, seed
):
    oracles = [
        hand_wired(network_size, transactions, loss, crash_fraction, seed)
        for loss in losses
    ]
    result = degradation.run(
        network_size=network_size,
        seed=seed,
        transactions=transactions,
        loss_rates=tuple(losses),
        crash_fractions=(crash_fraction,),
    )
    tag = f"crash={crash_fraction:g}"
    for key in ("mse", "coverage", "retries_per_tx"):
        assert result.get(f"{key}[{tag}]").y == [o[key] for o in oracles], key
    # The fault_* scalars are the last cell's that had a plane.
    planes = [o["fault_stats"] for o in oracles if o["fault_stats"] is not None]
    expected = {f"fault_{k}": float(v) for k, v in (planes[-1] if planes else {}).items()}
    assert {k: v for k, v in result.scalars.items() if k.startswith("fault_")} == expected
