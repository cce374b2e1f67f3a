"""Backend-agnostic protocol semantics shared by both execution kernels.

hiREP now has two interchangeable execution backends behind the
:class:`~repro.core.interface.ReputationSystem` interface:

* the **object kernel** (``repro.core``): one Python object per peer, agent
  and trust row, driven through the discrete-event network — the reference
  implementation used for paper-scale (≈1000 node) replication; and
* the **array kernel** (``repro.vector``): struct-of-arrays state with
  vectorized update rules, built for 10⁵–10⁶ peer sweeps.

Everything that *defines* hiREP's numeric behaviour — the §5.2 rating
draw, the expertise EWMA, the consistency predicate, the query-time agent
ordering, the weighted vote aggregation and the hirep-θ eviction rule —
lives here, in one place, expressed both as scalar steps (object kernel)
and as vectorized equivalents (array kernel).  The baselines
(``repro.baselines``) rate, weigh and learn through the same functions.
Keeping a single source of truth is what makes the generated executor
test (``tests/property/test_prop_executors.py``) meaningful: both kernels
literally execute the same arithmetic, so final trust vectors agree
bit-for-bit and estimates agree to float tolerance.

``rate`` has no vector form: every executor draws one rating at a time
(through :class:`~repro.core.trust_models.QualityDrivenModel` on hiREP's
agents), as ``lo + (hi - lo) * rng.random()`` — ``rng.uniform(lo, hi)``
bit for bit and draw for draw, without its argument broadcasting.

Scalar/vector pairs and their proof obligations:

``ewma_step`` / ``ewma_update``
    ``α·A_c + (1-α)·A_p`` — numpy's elementwise multiply/add perform the
    identical IEEE-754 double operations as the scalar expression, so the
    vectorized form is bit-equal per element.
``selection_order``
    random shuffle followed by a *stable* descending sort on
    ``(value, updates)``.  ``np.lexsort`` is stable and ascending; sorting
    the negated keys of the shuffled permutation reproduces Python's
    ``list.sort(key=..., reverse=True)`` exactly.
``aggregate_estimate``
    the weighted-mean fold is kept as an explicit left-to-right sum (at
    most ``agents_queried`` terms) so both kernels accumulate in the same
    order; a zero weight contributes exactly nothing (``x + 0.0 == x``),
    which lets the array kernel pass weight 0 for vanished agents instead
    of filtering.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.net.messages import Category

__all__ = [
    "TRUST_TRAFFIC_CATEGORIES",
    "aggregate_estimate",
    "confidence",
    "confidence_array",
    "consistency_bit",
    "consistent",
    "eviction_mask",
    "ewma_step",
    "ewma_update",
    "rate",
    "selection_order",
]

#: Message categories that count as *trust traffic* in Fig. 5-style
#: accounting (queries, responses and transaction reports; discovery,
#: onion relaying and key exchange are overlay maintenance).
TRUST_TRAFFIC_CATEGORIES: tuple[str, str, str] = (
    Category.TRUST_QUERY,
    Category.TRUST_RESPONSE,
    Category.TRANSACTION_REPORT,
)


def rate(
    consistent_rater: bool,
    truth: float,
    rng: np.random.Generator,
    good_range: tuple[float, float],
    bad_range: tuple[float, float],
) -> float:
    """One rating of a subject whose ground truth is ``truth`` (§5.2).

    A consistent rater (a good agent, an honest voter) draws from
    ``good_range`` when the subject is trustable and from ``bad_range``
    otherwise; an inconsistent one swaps the ranges.
    """
    trustable = truth >= 0.5
    use_good = trustable if consistent_rater else not trustable
    lo, hi = good_range if use_good else bad_range
    return lo + (hi - lo) * rng.random()


def consistent(evaluation: float, outcome: float) -> bool:
    """Whether an agent's trust evaluation agrees with the observed outcome.

    Both values live in [0, 1]; they agree when they fall on the same side
    of 0.5 (the paper's good/bad rating scopes are [0.6, 1] and [0, 0.4],
    so 0.5 separates them cleanly).
    """
    return (evaluation >= 0.5) == (outcome >= 0.5)


def consistency_bit(evaluation: float, outcome: float) -> float:
    """The paper's current accuracy ``A_c``: 1.0 when consistent else 0.0."""
    return 1.0 if consistent(evaluation, outcome) else 0.0


def ewma_step(alpha: float, value: float, a_c: float) -> float:
    """One expertise EWMA step: ``α·A_c + (1-α)·A_p`` (§3.4.3)."""
    return alpha * a_c + (1.0 - alpha) * value


def ewma_update(
    alpha: float, values: np.ndarray, bits: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`ewma_step` over parallel value/accuracy arrays.

    Elementwise ``α·bits + (1-α)·values``; bit-identical to the scalar
    step applied per element.
    """
    return alpha * bits + (1.0 - alpha) * values


def confidence(updates: int) -> float:
    """Track-record confidence ``updates / (updates + 1)`` in [0, 1)."""
    return updates / (updates + 1.0)


def confidence_array(updates: np.ndarray) -> np.ndarray:
    """Vectorized :func:`confidence` (float64 result)."""
    return updates / (updates + 1.0)


def selection_order(
    values: np.ndarray, updates: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Query-time agent ordering: expertise desc, updates desc, random ties.

    Returns a permutation of ``arange(len(values))``.  Draw-for-draw and
    output-for-output identical to the object kernel's historic
    ``select_for_query``: one shuffle of ``arange(m)`` on ``rng`` followed
    by a stable descending sort on ``(value, updates)``.
    """
    m = int(len(values))
    if m == 0:
        return np.empty(0, dtype=np.int64)
    order = np.arange(m)
    rng.shuffle(order)
    # Stable ascending lexsort on negated keys == stable descending sort;
    # the last key in the tuple is the primary key.
    rank = np.lexsort((-np.asarray(updates)[order], -np.asarray(values)[order]))
    return order[rank]


def aggregate_estimate(
    values: Sequence[float], weights: Sequence[float]
) -> float:
    """Fold trust responses into one estimate (§3.5).

    ``values[i]`` is agent *i*'s trust evaluation and ``weights[i]`` its
    ``expertise · confidence`` weight (pass 0.0 for agents that vanished
    from the list before settlement — numerically identical to skipping
    them).  Falls back to the unweighted mean when no agent carries weight
    (all-fresh lists have confidence 0), and to the neutral prior 0.5 when
    there were no responses at all.
    """
    num = 0.0
    den = 0.0
    for value, weight in zip(values, weights):
        num += weight * value
        den += weight
    if den > 0:
        return num / den
    if values:
        # np.mean(values): the same pairwise sum and one division, without
        # the wrapper layers around them.
        return float(np.add.reduce(np.asarray(values, dtype=np.float64)) / len(values))
    return 0.5


def eviction_mask(values: np.ndarray, threshold: float) -> np.ndarray:
    """hirep-θ rule, vectorized: True where expertise fell below θ."""
    return values < threshold
