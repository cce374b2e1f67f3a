"""Property test: Fig. 7, the §4.2 DoS probe and the θ / onion ablations
through the campaign route, against the hand-wired runs they replaced.

Each of these used to build, attach, bootstrap, reset and run its systems
itself.  Those loops are kept here as the oracles: :func:`collusion_sweep`
(Fig. 7's attacker-ratio sweep, ``HiRepSystem`` trained then re-scored,
``PureVotingSystem`` run for the measure window only), :func:`trained_mse`
and :func:`onion_traffic` (the θ and onion ablations) and
:func:`dos_sequence` (train, take the top quarter of agents down with
peer 0 spared, run, restore, run).  The experiments are now campaign
cells (``campaign_cell``) whose trace the experiment slices; hypothesis
picks N, the seed, the attacker ratios, the train/measure split and the
swept θ and onion length, and every reading must be the same float.

Shown to fail under each of these seeded mutations: Fig. 7's hiREP
window starting one transaction early; voting run for train + measure;
the collusion transform leaving ``malicious_fraction`` alone; the DoS
victim count ``int(fraction · agents) + 1``; the DoS restore one
transaction late; the DoS take-down not sparing the requestor; the DoS
"before" window one transaction late; the cell firing its events in
reverse order; ``REDUCED_LISTS`` with 7 agents queried; the θ reading
over the last 41 transactions; the onion reading over ``answered``
instead of ``trust_messages``.  The attack stream seeded ``seed + 7718``
survives, as it must: none of these readings draws from it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.dos import restore_agents, take_down_top_agents
from repro.baselines.voting import PureVotingSystem
from repro.core.registry import build_system
from repro.core.system import HiRepSystem
from repro.exec.scheduler import SweepScheduler
from repro.exec.sweeps import job_values
from repro.experiments import ablations, fig7_malicious, robustness
from repro.workloads.scenarios import default_config

SIZES = st.integers(60, 150)
SEEDS = st.integers(0, 2**31 - 1)


def small_config(network_size, seed, **kw):
    """The extension experiments' reduced lists, written out."""
    return (
        default_config(network_size=network_size, seed=seed)
        .with_(
            trusted_agents=20,
            refill_threshold=12,
            agents_queried=8,
            tokens=8,
            onion_relays=3,
        )
        .with_(**kw)
    )


def trained(system, transactions):
    system.bootstrap()
    system.reset_metrics()
    system.run(transactions, requestor=0)
    return system


def collusion_sweep(network_size, seed, ratios, train, measure):
    """Fig. 7 as it was: hiREP trained then re-scored; voting measured."""
    hirep_y, voting_y = [], []
    for ratio in ratios:
        cfg = default_config(network_size=network_size, seed=seed).with_(
            poor_agent_fraction=ratio, malicious_fraction=ratio
        )
        hirep = trained(HiRepSystem(cfg), train)
        hirep.mse.reset()
        hirep.run(measure, requestor=0)
        voting = PureVotingSystem(cfg)
        voting.run(measure, requestor=0)
        hirep_y.append(hirep.mse.mse())
        voting_y.append(voting.mse.mse())
    return hirep_y, voting_y


def trained_mse(network_size, seed, theta):
    cfg = small_config(network_size, seed, eviction_threshold=theta)
    return trained(build_system("hirep", cfg), 150).mse.tail_mse(40)


def onion_traffic(network_size, seed, relays):
    cfg = small_config(network_size, seed, onion_relays=relays)
    system = trained(build_system("hirep", cfg), 30)
    return float(np.mean([o.trust_messages for o in system.outcomes]))


def dos_sequence(network_size, seed):
    system = trained(build_system("hirep", small_config(network_size, seed)), 120)
    before = system.mse.tail_mse(40)
    outcome = take_down_top_agents(
        system, count=max(2, len(system.agents) // 4), exclude={0}
    )
    system.run(80, requestor=0)
    during = float(np.mean([o.answered for o in system.outcomes[-80:]]))
    restore_agents(system, outcome)
    system.run(80, requestor=0)
    return {
        "dos_before_mse": before,
        "dos_after_mse": system.mse.tail_mse(40),
        "dos_answered_during": during,
    }


@settings(max_examples=3, deadline=None)
@given(
    network_size=SIZES,
    seed=SEEDS,
    ratios=st.lists(
        st.sampled_from(fig7_malicious.RATIOS), min_size=1, max_size=2, unique=True
    ),
    train=st.integers(5, 30),
    measure=st.integers(5, 15),
)
def test_fig7_cells_read_what_the_hand_wired_sweep_read(
    network_size, seed, ratios, train, measure
):
    result = fig7_malicious.run(
        network_size=network_size,
        train_transactions=train,
        measure_transactions=measure,
        seed=seed,
        ratios=tuple(ratios),
    )
    hirep_y, voting_y = collusion_sweep(network_size, seed, ratios, train, measure)
    assert result.get("hirep").y == hirep_y
    assert result.get("voting").y == voting_y


@settings(max_examples=3, deadline=None)
@given(
    network_size=SIZES,
    seed=SEEDS,
    theta=st.sampled_from(ablations.SWEEPS["theta"][2]),
    relays=st.sampled_from(ablations.SWEEPS["onion"][2]),
)
def test_theta_and_onion_cells_read_what_the_hand_wired_runs_read(
    network_size, seed, theta, relays
):
    wanted = {
        f"ablations-theta/eviction_threshold={theta:g}[hirep,seed={seed}]": "theta",
        f"ablations-onion/onion_relays={relays:g}[hirep,seed={seed}]": "onion",
    }
    specs = [
        s for s in ablations.plan(network_size=network_size, seed=seed).specs
        if s.label in wanted
    ]
    cells = job_values(SweepScheduler(jobs=1, retries=0).run(specs))
    readings = {
        wanted[spec.label]: ablations.SWEEPS[wanted[spec.label]][-1](cell)
        for spec, cell in zip(specs, cells)
    }
    assert readings == {
        "theta": trained_mse(network_size, seed, theta),
        "onion": onion_traffic(network_size, seed, relays),
    }


@settings(max_examples=2, deadline=None)
@given(network_size=SIZES, seed=SEEDS)
def test_dos_cell_reads_what_the_hand_wired_sequence_read(network_size, seed):
    label = f"robust42/dos[hirep,seed={seed}]"
    specs = [
        s for s in robustness.plan(network_size=network_size, seed=seed).specs
        if s.label == label
    ]
    (cell,) = job_values(SweepScheduler(jobs=1, retries=0).run(specs))
    assert robustness._dos_readings(cell) == dos_sequence(network_size, seed)
    # The requestor is never a victim.
    victims = cell["trace"]["detail"]["victims"]
    assert victims and 0 not in victims
