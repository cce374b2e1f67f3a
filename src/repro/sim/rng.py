"""Seeded randomness utilities.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` that is threaded explicitly through
constructors — there is no module-level hidden state, so simulations are
reproducible bit-for-bit from a single integer seed.

:func:`spawn` derives independent child generators for subsystems (topology,
workload, attacks, latency) so adding draws to one subsystem does not perturb
the stream seen by another — the standard trick for variance-controlled
parameter sweeps.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "spawn", "choice_without"]


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a Generator; pass through if one is already supplied."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    return list(rng.spawn(n))


def choice_without(
    rng: np.random.Generator, n: int, exclude: int
) -> int:
    """Uniformly pick an integer in ``[0, n)`` different from ``exclude``.

    Used throughout workload generation to pick a provider distinct from the
    requestor without rejection loops.
    """
    if n < 2:
        raise ValueError("need at least two values to exclude one")
    draw = int(rng.integers(0, n - 1))
    return draw + 1 if draw >= exclude else draw

