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

from itertools import chain
from typing import Sequence

import numpy as np

from repro.errors import ConfigError

__all__ = ["rank_within_list", "reply_block", "select_agents"]


def reply_block(
    id_rows: Sequence[Sequence[int]], weight_rows: Sequence[Sequence[float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad ragged per-reply columns into an ``(ids, weights, lens)`` block."""
    lens = np.array([len(row) for row in id_rows], dtype=np.int64)
    if lens.tolist() != [len(row) for row in weight_rows]:
        raise ConfigError("each reply needs one weight per agent id")
    valid = np.arange(lens.max(initial=0)) < lens[:, None]
    ids = np.full(valid.shape, -1, dtype=np.int64)
    weights = np.zeros(valid.shape, dtype=np.float64)
    ids[valid] = list(chain.from_iterable(id_rows))
    weights[valid] = list(chain.from_iterable(weight_rows))
    return ids, weights, lens


def rank_within_list(weights: np.ndarray, lens: np.ndarray, n: int) -> np.ndarray:
    """Rank each reply row: best weight → n, next → n-1, …, floored at 0.

    Equal weights keep their list order.  Returns the block of ranks,
    ``-1`` in padding cells.  An agent duplicated inside one list holds a
    rank per cell; the merge keeps its best.
    """
    if n < 1:
        raise ConfigError(f"requestor must want at least one agent, got {n}")
    position = np.arange(weights.shape[1])
    valid = position < np.asarray(lens)[:, None]
    # Stable descending sort, padding last: sorted position j of a row is
    # one of its valid cells exactly when j < len.
    order = np.where(valid, -weights, np.inf).argsort(axis=1, kind="stable")
    ranks = np.empty(order.shape, dtype=np.int64)
    ranks[np.arange(len(order))[:, None], order] = np.where(
        valid, np.maximum(n - position, 0), -1
    )
    return ranks


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
        for it.
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
    # Group the cells by agent: a stable sort keeps each agent's cells in
    # block order, so a group starts at the agent's first appearance.
    cell_ids = ids.ravel()[cells]
    by = cell_ids.argsort(kind="stable")
    agent_ids, by = cell_ids[by], cells[by]
    group = np.concatenate(([True], agent_ids[1:] != agent_ids[:-1]))
    starts = group.nonzero()[0]
    first = by[starts]
    if merge == "max":
        final = np.maximum.reduceat(ranks.ravel()[by], starts)
    else:
        # One rank per (list, agent): a duplicate counts once, at its best.
        pairs = group | (np.diff(by // ids.shape[1], prepend=-1) != 0)
        best = np.maximum.reduceat(ranks.ravel()[by], pairs.nonzero()[0])
        agent = group.cumsum()[pairs] - 1
        final = np.bincount(agent, weights=best) / np.bincount(agent)
    # Random tie-break: shuffle the candidates (held in first-appearance
    # order, never hash or id order), then stable-sort by rank descending.
    order = np.arange(first.size)
    rng.shuffle(order)
    shuffled = first.argsort()[order]
    top = shuffled[(-final[shuffled]).argsort(kind="stable")[:n]]
    return divmod(first[top], ids.shape[1])
