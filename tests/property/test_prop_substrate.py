"""Property test: the shared liveness store against a brute-force recount.

A generated script interleaves ``set_online``, :class:`ChurnModel` steps
(with protected and extra-protected sets, some of them off the ends of the
index range) and clock advances that open and close :class:`CrashSchedule`
windows.  It is played on a :class:`P2PNetwork` (windows fired by its own
event engine), on an :class:`ArrayNetwork` (no engine: the test flips the
same nodes at the same points) and on a plain ``list[bool]`` stepped by
the per-node loop ``ChurnModel.step`` used to be.  After every step every
view either network offers must equal a recount of that list.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.churn import ChurnModel, ChurnStats
from repro.net.faults import CrashSchedule, CrashWindow, FaultPlane
from repro.net.network import P2PNetwork
from repro.net.node import AGENT_BANDWIDTH_CUTOFF_KBPS
from repro.net.topology import ring_lattice
from repro.vector.network import ArrayNetwork


@st.composite
def scripts(draw):
    n = draw(st.integers(min_value=3, max_value=24))
    node = st.integers(min_value=0, max_value=n - 1)
    shielded = st.frozensets(st.integers(min_value=-2, max_value=n + 1), max_size=4)
    prob = st.sampled_from([0.0, 0.1, 0.5, 1.0])
    step = st.one_of(
        st.tuples(st.just("set"), node, st.booleans()),
        st.tuples(st.just("churn"), st.integers(0, 2**32 - 1), prob, prob, shielded),
        st.tuples(st.just("advance"), st.integers(min_value=0, max_value=40)),
    )
    window = st.tuples(
        node,
        st.integers(min_value=0, max_value=100),
        st.one_of(st.integers(min_value=0, max_value=60), st.just(math.inf)),
    )
    return (
        n,
        draw(st.integers(0, 2**32 - 1)),
        draw(shielded),
        [CrashWindow(v, float(a), a + d) for v, a, d in draw(st.lists(window, max_size=6))],
        draw(st.lists(step, max_size=25)),
    )


def crash_events(windows):
    """(time, node, online) in the order the engine fires CrashSchedule's
    events: by time, ties in scheduling order (crash, then recovery, per
    window)."""
    events = []
    for w in windows:
        events.append((w.start_ms, len(events), w.node, False))
        if math.isfinite(w.end_ms):
            events.append((w.end_ms, len(events), w.node, True))
    return [(t, node, online) for t, _seq, node, online in sorted(events)]


def assert_matches(net, alive, handed_out, untouched):
    n = len(alive)
    online = [i for i in range(n) if alive[i]]
    assert net.online_nodes() == online
    assert all(type(i) is int for i in net.online_nodes())
    assert net.online_indices().tolist() == online
    assert net.online_mask.tolist() == alive
    assert net.any_offline == (len(online) < n)
    assert [net.is_online(i) for i in range(n)] == alive
    assert net.agent_capable_nodes() == [
        i for i in online if net.bandwidth[i] > AGENT_BANDWIDTH_CUTOFF_KBPS
    ]
    # A list handed out earlier is a snapshot: the same object until some
    # node's liveness moves, never edited afterwards.
    if handed_out and untouched:
        assert net.online_nodes() is handed_out[-1][0]
    for earlier, copy in handed_out:
        assert earlier == copy
    handed_out.append((net.online_nodes(), list(online)))


@given(script=scripts())
@settings(max_examples=120, deadline=None)
def test_liveness_views_equal_a_brute_force_recount(script):
    n, seed, protected, windows, steps = script
    topology = ring_lattice(n, k=1)
    obj = P2PNetwork(topology, np.random.default_rng(seed))
    arr = ArrayNetwork(topology, np.random.default_rng(seed))
    FaultPlane([CrashSchedule(windows)]).install(obj)
    pending = crash_events(windows)
    alive = [True] * n
    fired = []  # the mask as the array network's first-departure hook saw it
    arr.on_first_offline = lambda: fired.append(arr.online_mask.copy())
    churns = [ChurnModel(0.0, 0.0, protected=set(protected)) for _ in range(2)]
    reference = ChurnStats()
    handed = ([], [])
    clock = 0.0
    ever_departed = False
    flips = 0

    def flip(node, online, departed):
        """The reference: one node, one assignment."""
        nonlocal flips
        flips += alive[node] != online
        if alive[node] and not online:
            departed.add(node)
        alive[node] = online

    for step in steps:
        before = [i for i in range(n) if alive[i]]
        departed: set[int] = set()
        flips = 0
        obj._link_free_at = dict.fromkeys(before, 1.0)
        if step[0] == "set":
            _, node, online = step
            obj.set_online(node, online)
            arr.set_online(node, online)
            flip(node, online, departed)
        elif step[0] == "churn":
            _, draw_seed, leave, rejoin, extra = step
            for churn, net in zip(churns, (obj, arr)):
                churn.leave_prob, churn.rejoin_prob = leave, rejoin
                churn.step(net, np.random.default_rng(draw_seed), extra)
            # The deleted per-node loop, over the same draw vector.
            if leave or rejoin:
                draws = np.random.default_rng(draw_seed).random(n)
                for i in range(n):
                    if i in protected or i in extra:
                        continue
                    if alive[i] and draws[i] < leave:
                        flip(i, False, departed)
                        reference.departures += 1
                    elif not alive[i] and draws[i] < rejoin:
                        flip(i, True, departed)
                        reference.rejoins += 1
            assert churns[0].stats == churns[1].stats == reference
        else:
            clock += step[1]
            obj.run(until=clock)
            while pending and pending[0][0] <= clock:
                _, node, online = pending.pop(0)
                arr.set_online(node, online)
                flip(node, online, departed)
        for net, handed_out in zip((obj, arr), handed):
            assert_matches(net, alive, handed_out, untouched=not flips)
        # Exactly the nodes that left give up their access-link horizon.
        assert set(obj._link_free_at) == set(before) - departed
        # First departure ever: the hook ran once, on a still-full mask.
        ever_departed = ever_departed or bool(departed)
        assert len(fired) == int(ever_departed)
    assert all(mask.all() for mask in fired)
