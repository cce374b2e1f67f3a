"""Property-based tests for ranking invariants (§3.4.2 / §4.2.1).

The columnar ranking replaced a dict-of-nodeID implementation; that
implementation lives on here as the oracle, and the block form must agree
with it winner for winner and draw for draw.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranking import rank_within_list, reply_block, select_agents


def oracle_rank(entries, n):
    """One list of ``(agent, weight)``: best weight → n, …, floored at 0;
    a duplicated agent keeps its best position."""
    ranks = {}
    ordered = sorted(entries, key=lambda e: e[1], reverse=True)
    for position, (agent, _weight) in enumerate(ordered):
        ranks[agent] = max(ranks.get(agent, -1), max(n - position, 0))
    return ranks


def oracle_select(lists, n, rng, merge):
    """The pre-columnar ``discover_for`` tail: rank each list, merge, take
    the top ``n`` with a shuffle-then-stable-sort tie-break."""
    per_list = [oracle_rank(entries, n) for entries in lists]
    candidates = list(dict.fromkeys(agent for lst in lists for agent, _ in lst))
    if not candidates:
        return []
    seen = {a: [r[a] for r in per_list if a in r] for a in candidates}
    if merge == "max":
        final = {a: max(ranks) for a, ranks in seen.items()}
    else:
        final = {a: sum(ranks) / len(ranks) for a, ranks in seen.items()}
    order = np.arange(len(candidates))
    rng.shuffle(order)
    shuffled = [candidates[int(i)] for i in order]
    shuffled.sort(key=lambda a: final[a], reverse=True)
    return shuffled[:n]


def block(lists):
    return reply_block(
        [agent for lst in lists for agent, _ in lst],
        [weight for lst in lists for _, weight in lst],
        [len(lst) for lst in lists],
    )


# Few distinct ids and weights, so duplicates inside a list and ties in
# weight and in final rank are the common case, not the rare one.
weights = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0)
cells = st.tuples(st.integers(min_value=0, max_value=12), weights)
agent_lists = st.lists(cells, min_size=1, max_size=15)
replies = st.lists(
    st.lists(cells, max_size=9)  # long lists (m > n), self-only rows, empty rows
    | st.lists(cells, min_size=1, max_size=1),
    max_size=7,  # including no reply at all
)


@given(
    lists=replies,
    n=st.integers(min_value=1, max_value=10),
    merge=st.sampled_from(["max", "mean"]),
    seed=st.integers(0, 1000),
)
@settings(max_examples=300)
def test_columnar_matches_dict_oracle(lists, n, merge, seed):
    ids, weights_, lens = block(lists)
    ranks = rank_within_list(weights_, lens, n)
    for r, entries in enumerate(lists):  # per-list ranks agree, best-of-duplicates
        got = {}
        for agent, rank in zip(ids[r, : lens[r]].tolist(), ranks[r, : lens[r]].tolist()):
            got[agent] = max(got.get(agent, -1), rank)
        assert got == oracle_rank(entries, n)
        assert (ranks[r, lens[r] :] == -1).all()

    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    picked_replies, picked_rows = select_agents(ids, ranks, n, rng, merge=merge)
    expected = oracle_select(lists, n, oracle_rng, merge)
    assert ids[picked_replies, picked_rows].tolist() == expected
    # Draw for draw: both generators end in the same state.
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # Each winner is named by the cell of its first appearance.
    first = {}
    for r, entries in enumerate(lists):
        for row, (agent, _weight) in enumerate(entries):
            first.setdefault(agent, (r, row))
    assert list(zip(picked_replies.tolist(), picked_rows.tolist())) == [
        first[agent] for agent in expected
    ]


@given(raw=agent_lists, n=st.integers(min_value=1, max_value=10))
@settings(max_examples=80)
def test_ranks_bounded_and_ordered(raw, n):
    ids, weights_, lens = block([raw])
    ranks = rank_within_list(weights_, lens, n)[0]
    assert ((0 <= ranks) & (ranks <= n)).all()
    # Higher weight never ranks strictly below lower weight.
    for (_, w_hi), r_hi in zip(raw, ranks.tolist()):
        for (_, w_lo), r_lo in zip(raw, ranks.tolist()):
            if w_hi > w_lo:
                assert r_hi >= r_lo


@given(lists=replies, n=st.integers(min_value=1, max_value=8), seed=st.integers(0, 1000))
@settings(max_examples=80)
def test_merge_is_pointwise_max(lists, n, seed):
    """The selection is a top-``n`` set under each agent's best cell rank."""
    ids, weights_, lens = block(lists)
    ranks = rank_within_list(weights_, lens, n)
    picked_replies, picked_rows = select_agents(ids, ranks, n, np.random.default_rng(seed))
    best = {}
    for agent, rank in zip(ids[ranks >= 0].tolist(), ranks[ranks >= 0].tolist()):
        best[agent] = max(best.get(agent, -1), rank)
    picked = ids[picked_replies, picked_rows].tolist()
    left_out = [rank for agent, rank in best.items() if agent not in picked]
    assert [best[a] for a in picked] == sorted((best[a] for a in picked), reverse=True)
    assert not left_out or min(best[a] for a in picked) >= max(left_out)


@given(raw=agent_lists, n=st.integers(min_value=1, max_value=8), seed=st.integers(0, 1000))
@settings(max_examples=60)
def test_select_count_and_membership(raw, n, seed):
    ids, weights_, lens = block([raw])
    ranks = rank_within_list(weights_, lens, n)
    picked_replies, picked_rows = select_agents(ids, ranks, n, np.random.default_rng(seed))
    unique = {agent for agent, _ in raw}
    picked = ids[picked_replies, picked_rows].tolist()
    assert len(picked) == min(n, len(unique))
    assert len(picked) == len(set(picked))
    assert set(picked) <= unique
