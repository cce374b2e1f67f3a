"""Unit tests for agent ranking and selection (§3.4.2) on reply columns."""

import numpy as np
import pytest

from repro.core.ranking import rank_within_list, reply_block, select_agents
from repro.errors import ConfigError


def block(*lists):
    """One reply per list of ``(agent id, weight)`` pairs."""
    return reply_block(
        [[agent for agent, _ in lst] for lst in lists],
        [[weight for _, weight in lst] for lst in lists],
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
