"""Agent ranking and selection (§3.4.2).

Given the trusted-agent lists collected during discovery, the requestor:

1. within each received list, ranks agents by weight — the greatest weight
   gets rank ``n`` (where ``n`` is how many agents the requestor wants), the
   second greatest ``n-1``, and so on; when a list holds ``m > n`` agents,
   every agent ranked below ``n - m`` gets rank 0 (i.e. ranks floor at 0);
2. merges across lists by taking each agent's **highest** rank — this is the
   defence against bad-mouthing: one genuine high recommendation beats any
   number of low ones (§4.2.1), at the cost of admitting single
   ballot-stuffers (ablated in the ``ablations`` experiment);
3. selects the top ``n`` agents by final rank, breaking ties uniformly at
   random.

A round's replies are one *block* of columns, a row per reply: ``ids``
(integer agent identifiers, any coding that keeps distinct agents
distinct), ``weights`` and ``lens`` (valid cells per row; the rest is
padding).  Ranking and selection run on the block and name the winners by
*position* ``(reply, row)``, so a caller builds entry objects for at most
``n`` cells however many were advertised.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError

__all__ = ["rank_within_list", "reply_block", "select_agents"]

#: The low half of a sort key: the cell (or place) it names.
_LOW = 0xFFFFFFFF


def reply_block(
    ids: Sequence[int], weights: Sequence[float], lens: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad flat reply columns into an ``(ids, weights, lens)`` block.

    ``ids`` and ``weights`` hold the replies' cells back to back, reply
    ``r`` contributing the next ``lens[r]`` of them.
    """
    if len(ids) != len(weights) or len(ids) != sum(lens) or min(lens, default=0) < 0:
        raise ConfigError("reply columns need one weight per id and lens >= 0 that cover them")
    lens = np.array(lens, dtype=np.int64)
    valid = np.arange(lens.max(initial=0)) < lens[:, None]
    block_ids = np.full(valid.shape, -1, dtype=np.int64)
    block_weights = np.zeros(valid.shape, dtype=np.float64)
    block_ids[valid] = np.fromiter(ids, np.int64, len(ids))
    block_weights[valid] = np.fromiter(weights, np.float64, len(ids))
    return block_ids, block_weights, lens


def rank_within_list(weights: np.ndarray, lens: np.ndarray, n: int) -> np.ndarray:
    """Rank each reply row: best weight → n, next → n-1, …, floored at 0.

    Equal weights keep their list order.  Returns the block of ranks,
    ``-1`` in padding cells.  An agent duplicated inside one list holds a
    rank per cell; the merge keeps its best.

    A cell's rank is ``max(n - at, 0)``, ``at`` being its place in the
    row's stable descending order (the inverse of that order).  A NaN
    weight, which no executor produces, sorts after the padding, so its
    cell is ranked by that place and padding cells still read ``-1``
    (writing ranks through the order instead would hand a padding cell
    the NaN's rank).
    """
    if n < 1:
        raise ConfigError(f"requestor must want at least one agent, got {n}")
    valid = np.arange(weights.shape[1]) < np.asarray(lens)[:, None]
    # Stable descending sort, padding last: a valid cell's place in it is
    # below the row's length.
    order = np.where(valid, -weights, np.inf).argsort(axis=1, kind="stable")
    at = order.argsort(axis=1)
    return np.where(valid, np.maximum(n - at, 0), -1)


def select_agents(
    ids: np.ndarray,
    ranks: np.ndarray,
    n: int,
    rng: np.random.Generator,
    *,
    merge: str = "max",
) -> tuple[np.ndarray, np.ndarray]:
    """Pick the requestor's ``n`` trusted agents.

    Parameters
    ----------
    ids, ranks:
        The replies' agent-id block and :func:`rank_within_list`'s ranks
        for it.  Ids must fit in 32 bits, signed: the sorts below key a
        cell by its id in the high half of a 64-bit word.
    merge:
        ``"max"`` is the paper's rule; ``"mean"`` averages an agent's ranks
        across lists (used only by the ablation study).

    Returns the winners' positions ``(reply, row)``, best first: each
    winner is named by the cell where its id first appears, reading the
    block reply by reply.
    """
    if n < 1:
        raise ConfigError(f"must select at least one agent, got {n}")
    if merge not in ("max", "mean"):
        raise ConfigError(f"unknown merge rule {merge!r}")
    cells = (ranks >= 0).ravel().nonzero()[0]  # row-major: first-appearance order
    if cells.size == 0:
        return cells, cells
    # Group the cells by agent.  The keys ``(id << 32) | cell`` are
    # distinct, so sorting them orders the cells as a stable sort of the
    # ids would: each agent's cells in block order, a group starting at
    # the agent's first appearance.
    key = np.left_shift(ids.ravel()[cells], 32, dtype=np.int64) | cells
    key.sort()
    agent_ids, by = key >> 32, key & _LOW
    group = np.concatenate(([True], agent_ids[1:] != agent_ids[:-1]))
    starts = group.nonzero()[0]
    first = by[starts]
    # Random tie-break: shuffle the candidates (held in first-appearance
    # order, never hash or id order), then sort by final rank descending,
    # equal finals in shuffled order.
    order = np.arange(first.size)
    rng.shuffle(order)
    shuffled = first.argsort()[order]
    if merge == "max":
        final = np.maximum.reduceat(ranks.ravel()[by], starts)
        # Integer finals: the keys ``(-final << 32) | place`` are distinct
        # and sort as a stable descending sort of the finals would.
        key = np.left_shift(-final[shuffled], 32) | np.arange(shuffled.size)
        key.sort()
        top = shuffled[key[:n] & _LOW]
    else:
        # One rank per (list, agent): a duplicate counts once, at its best.
        pairs = group | (np.diff(by // ids.shape[1], prepend=-1) != 0)
        best = np.maximum.reduceat(ranks.ravel()[by], pairs.nonzero()[0])
        agent = group.cumsum()[pairs] - 1
        final = np.bincount(agent, weights=best) / np.bincount(agent)
        # Fractional finals take the stable sort itself.
        top = shuffled[(-final[shuffled]).argsort(kind="stable")[:n]]
    return divmod(first[top], ids.shape[1])
