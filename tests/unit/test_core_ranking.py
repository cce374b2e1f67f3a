"""Unit tests for agent ranking and selection (§3.4.2) on reply columns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranking import rank_within_list, reply_block, select_agents
from repro.errors import ConfigError


def block(*lists):
    """One reply per list of ``(agent id, weight)`` pairs."""
    return reply_block(
        [agent for lst in lists for agent, _ in lst],
        [weight for lst in lists for _, weight in lst],
        [len(lst) for lst in lists],
    )


def picked(lists, n, rng, **kw):
    """Ids of the agents selected from ``lists``, best first."""
    ids, weights, lens = block(*lists)
    replies, rows = select_agents(ids, rank_within_list(weights, lens, n), n, rng, **kw)
    return ids[replies, rows].tolist()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestReplyBlock:
    def test_pads_ragged_rows(self):
        ids, weights, lens = block([(7, 0.5)], [(1, 0.9), (2, 0.1), (3, 0.3)], [])
        assert lens.tolist() == [1, 3, 0]
        assert ids.tolist() == [[7, -1, -1], [1, 2, 3], [-1, -1, -1]]
        assert weights[1].tolist() == [0.9, 0.1, 0.3]

    def test_no_replies(self):
        ids, weights, lens = block()
        assert ids.shape == weights.shape == (0, 0) and lens.shape == (0,)

    @pytest.mark.parametrize(
        "ids, weights, lens",
        [
            ([1, 2], [0.5], [2]),  # one weight would spread over both cells
            ([1, 2], [0.5], [1, 1]),  # a reply without weights
            ([1, 2, 3], [0.5, 0.1, 0.9], [1, 1]),  # a cell no reply holds
            ([1, 2], [0.5, 0.1], [3, -1]),  # the right total, a negative length
        ],
    )
    def test_columns_that_disagree_with_lens_rejected(self, ids, weights, lens):
        with pytest.raises(ConfigError):
            reply_block(ids, weights, lens)


class TestRankWithinList:
    def test_best_weight_gets_n(self):
        _, weights, lens = block([(1, 0.9), (2, 0.5), (3, 0.1)], [(3, 0.2), (1, 0.7)])
        ranks = rank_within_list(weights, lens, n=3)
        assert ranks.tolist() == [[3, 2, 1], [2, 3, -1]]

    def test_longer_list_floors_at_zero(self):
        """m > n: agents past position n get rank 0 ('ranked less than
        n-m ... assigned a rank value 0')."""
        _, weights, lens = block([(i, 1.0 - i / 10) for i in range(5)])
        assert rank_within_list(weights, lens, n=2).tolist() == [[2, 1, 0, 0, 0]]

    def test_equal_weights_keep_list_order(self):
        _, weights, lens = block([(1, 0.5), (2, 0.9), (3, 0.5)])
        assert rank_within_list(weights, lens, n=3).tolist() == [[2, 3, 1]]

    def test_duplicate_agent_keeps_best_position(self, rng):
        lists = [[(1, 0.9), (1, 0.1), (2, 0.5)]]
        assert picked(lists, 1, rng) == [1]
        # ... under the mean merge too: the 0.1 cell does not drag it down.
        assert picked(lists, 1, rng, merge="mean") == [1]

    def test_empty_list(self):
        _, weights, lens = block([])
        assert rank_within_list(weights, lens, n=5).shape == (1, 0)

    def test_n_validation(self):
        _, weights, lens = block([])
        with pytest.raises(ConfigError):
            rank_within_list(weights, lens, n=0)


def scatter_ranks(weights, lens, n):
    """``rank_within_list`` as it stood: the row's stable order, then one
    2-D scatter of ``max(n - position, 0)`` through it.  Kept as the oracle
    of the inverse-order form."""
    position = np.arange(weights.shape[1])
    valid = position < np.asarray(lens)[:, None]
    order = np.where(valid, -weights, np.inf).argsort(axis=1, kind="stable")
    ranks = np.empty(order.shape, dtype=np.int64)
    ranks[np.arange(len(order))[:, None], order] = np.where(
        valid, np.maximum(n - position, 0), -1
    )
    return ranks


@st.composite
def weight_blocks(draw):
    """A padded weight block: ties, infinities, rows of padding only, and
    junk (not zeros) in the padding cells."""
    rows = draw(st.integers(0, 6))
    width = draw(st.integers(0, 9))
    cell = st.sampled_from([0.0, 0.5, 1.0, -np.inf, np.inf]) | st.floats(
        -2.0, 2.0, allow_nan=False
    )
    row = st.lists(cell, min_size=width, max_size=width)
    weights = np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=np.float64)
    lens = draw(st.lists(st.integers(0, width), min_size=rows, max_size=rows))
    return weights.reshape(rows, width), np.array(lens, dtype=np.int64)


class TestRankAgainstTheScatter:
    @given(block_=weight_blocks(), n=st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_inverse_order_equals_the_scatter(self, block_, n):
        weights, lens = block_
        expected = scatter_ranks(weights, lens, n).tolist()
        assert rank_within_list(weights, lens, n).tolist() == expected

    def test_padding_only_rows(self):
        weights, lens = np.full((3, 4), 0.5), np.zeros(3, dtype=np.int64)
        assert rank_within_list(weights, lens, 2).tolist() == [[-1] * 4] * 3
        assert scatter_ranks(weights, lens, 2).tolist() == [[-1] * 4] * 3

    def test_a_nan_weight_is_where_the_two_forms_differ(self):
        """NaN sorts after the padding's +inf key.  The scatter then wrote
        a rank into a padding cell and -1 into the NaN cell; the inverse
        order keeps -1 in padding and ranks the NaN cell last.  No executor
        produces a NaN weight."""
        weights, lens = np.array([[0.5, np.nan, 0.0]]), np.array([2])
        assert rank_within_list(weights, lens, 3).tolist() == [[3, 1, -1]]
        assert scatter_ranks(weights, lens, 3).tolist() == [[3, -1, 2]]


class TestMergeRanks:
    """The across-lists merge rule, observed through the selection."""

    def test_takes_maximum(self, rng):
        # a: ranks 2 and 0 -> 2;  b: 1 and 2 -> 2;  c: 0 and 1 -> 1.
        lists = [[(1, 0.9), (2, 0.5), (3, 0.1)], [(2, 0.9), (3, 0.5), (1, 0.1)]]
        assert sorted(picked(lists, 2, rng)) == [1, 2]

    def test_bad_mouthing_ignored(self, rng):
        """§4.2.1: many zero-votes cannot depress one honest high vote."""
        honest = [(1, 1.0), (2, 0.2)]
        attack = [(2, 1.0), (3, 0.9), (1, 0.0)]
        assert 1 in picked([honest] + [attack] * 100, 2, rng)

    def test_empty(self, rng):
        assert picked([], 3, rng) == []


class TestSelectAgents:
    def test_selects_top_n(self, rng):
        lists = [[(i, 0.1 * i) for i in range(6)]]
        assert picked(lists, 3, rng) == [5, 4, 3]

    def test_winners_are_named_by_first_appearance(self, rng):
        """The cell returned for an agent is where its id first shows up,
        even when it owes its rank to a later list."""
        ids, weights, lens = block([(4, 0.1), (9, 0.9), (5, 0.5)], [(4, 1.0)])
        ranks = rank_within_list(weights, lens, 2)  # 4: 0 then 2; 9: 2; 5: 1
        replies, rows = select_agents(ids, ranks, 2, rng)
        assert sorted(zip(replies.tolist(), rows.tolist())) == [(0, 0), (0, 1)]

    def test_tie_break_random_over_runs(self):
        # Equal *ranks* (one per single-entry list) force the tie-break.
        lists = [[(i, 1.0)] for i in range(10)]
        seen = {picked(lists, 1, np.random.default_rng(seed))[0] for seed in range(30)}
        assert len(seen) > 1  # random tie-break across seeds

    def test_mean_merge_differs_under_badmouthing(self, rng):
        good, poor = 1, 2
        honest = [(good, 1.0), (poor, 0.5)]
        attack = [(poor, 1.0), (good, 0.0)]
        lists = [honest] + [attack] * 20
        assert picked(lists, 1, rng, merge="max") == [good]
        assert picked(lists, 1, rng, merge="mean") == [poor]

    def test_unknown_merge_rejected(self, rng):
        ids, _, _ = block()
        with pytest.raises(ConfigError):
            select_agents(ids, ids, 1, rng, merge="median")

    def test_n_validation(self, rng):
        ids, _, _ = block()
        with pytest.raises(ConfigError):
            select_agents(ids, ids, 0, rng)

    def test_empty_candidates(self, rng):
        state = rng.bit_generator.state
        assert picked([[]], 3, rng) == []
        assert rng.bit_generator.state == state  # no draw without candidates

    def test_fewer_candidates_than_n(self, rng):
        assert picked([[(7, 0.5)]], 5, rng) == [7]


class TestSortKeys:
    """``select_agents`` sorts 64-bit keys, ``(id << 32) | cell`` and, for
    the max merge, ``(-final << 32) | place``: cases a wrong key gets
    wrong."""

    def test_mean_finals_less_than_one_apart(self):
        # n = 2: agent 50 ranks 3 in every list (mean 3), agent 1 ranks 2
        # and 3 (mean 2.5), agents 10-19 rank 2 once each (mean 2).  An
        # integer key ties agent 1 with the ten.
        lists = [[(50, 0.9), (a, 0.5)] for a in range(10, 20)]
        lists += [[(50, 0.9), (1, 0.5)], [(1, 0.9)]]
        for seed in range(20):
            assert picked(lists, 2, np.random.default_rng(seed), merge="mean") == [50, 1]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_ids_at_the_32_bit_edges(self, dtype, rng):
        """The array kernel's ids are int32 host ips; the object kernel's
        are int64 codes.  Ids span the signed 32-bit range."""
        top, bottom = 2**31 - 1, -(2**31)
        ids, weights, lens = block(
            [(top, 0.9), (-5, 0.5), (top - 1, 0.1)],
            [(-5, 1.0), (top, 0.1), (bottom, 0.3)],
        )
        ids = ids.astype(dtype)
        # n = 4: top and -5 reach rank 4, bottom 3, top - 1 rank 2.
        ranks = rank_within_list(weights, lens, 4)
        replies, rows = select_agents(ids, ranks, 4, rng)
        named = list(zip(replies.tolist(), rows.tolist()))
        assert sorted(named[:2]) == [(0, 0), (0, 1)]
        assert named[2:] == [(1, 2), (0, 2)]
        assert ids[replies, rows].tolist()[2:] == [bottom, top - 1]

    @pytest.mark.parametrize("merge", ["max", "mean"])
    def test_a_block_of_one_agent(self, merge, rng):
        ids, weights, lens = block(
            [(7, 0.2), (7, 0.9)], [(7, 0.5)], [(7, 0.1), (7, 0.3), (7, 0.7)]
        )
        state = rng.bit_generator.state
        replies, rows = select_agents(ids, rank_within_list(weights, lens, 3), 3, rng, merge=merge)
        assert list(zip(replies.tolist(), rows.tolist())) == [(0, 0)]
        assert rng.bit_generator.state == state  # one candidate: nothing to shuffle
