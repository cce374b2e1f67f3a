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


def reply_block(
    id_rows: Sequence[Sequence[int]], weight_rows: Sequence[Sequence[float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad ragged per-reply columns into an ``(ids, weights, lens)`` block."""
    lens = np.array([len(row) for row in id_rows], dtype=np.int64)
    shape = (lens.size, int(lens.max(initial=0)))
    ids = np.full(shape, -1, dtype=np.int64)
    weights = np.zeros(shape, dtype=np.float64)
    for r, (id_row, weight_row) in enumerate(zip(id_rows, weight_rows)):
        ids[r, : len(id_row)] = id_row
        weights[r, : len(id_row)] = weight_row
    return ids, weights, lens


def rank_within_list(weights: np.ndarray, lens: np.ndarray, n: int) -> np.ndarray:
    """Rank each reply row: best weight → n, next → n-1, …, floored at 0.

    Equal weights keep their list order.  Returns the block of ranks,
    ``-1`` in padding cells.  An agent duplicated inside one list holds a
    rank per cell; the merge keeps its best.
    """
    if n < 1:
        raise ConfigError(f"requestor must want at least one agent, got {n}")
    valid = np.arange(weights.shape[1]) < np.asarray(lens)[:, None]
    # Stable descending sort, padding last.
    order = np.argsort(np.where(valid, -weights, np.inf), axis=1, kind="stable")
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(
        ranks, order, np.maximum(n - np.arange(order.shape[1]), 0), axis=1
    )
    ranks[~valid] = -1
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
    reply, row = np.nonzero(ranks >= 0)  # row-major: first-appearance order
    if reply.size == 0:
        return reply, row
    cell_rank = ranks[reply, row]
    _, first, code = np.unique(
        ids[reply, row], return_index=True, return_inverse=True
    )
    if merge == "max":
        final = np.zeros(first.size, dtype=np.int64)
        np.maximum.at(final, code, cell_rank)
    else:
        # One rank per (list, agent): a duplicate counts once, at its best.
        pair, pair_code = np.unique(
            reply * first.size + code, return_inverse=True
        )
        best = np.zeros(pair.size, dtype=np.int64)
        np.maximum.at(best, pair_code, cell_rank)
        agent = pair % first.size
        final = np.bincount(agent, weights=best) / np.bincount(agent)
    # Random tie-break: shuffle the candidates (held in first-appearance
    # order, never hash or id order), then stable-sort by rank descending.
    order = np.arange(first.size)
    rng.shuffle(order)
    shuffled = np.argsort(first)[order]
    top = shuffled[np.argsort(-final[shuffled], kind="stable")[:n]]
    return reply[first[top]], row[first[top]]
