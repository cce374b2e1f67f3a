"""Seeded randomness utilities.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` that is threaded explicitly through
constructors — there is no module-level hidden state, so simulations are
reproducible bit-for-bit from a single integer seed.

:func:`spawn` derives independent child generators for subsystems (topology,
workload, attacks, latency) so adding draws to one subsystem does not perturb
the stream seen by another — the standard trick for variance-controlled
parameter sweeps.

Every stream is the one ``numpy.random.default_rng(seed)`` and its
``spawn`` tree would produce.  :class:`BatchSeedSequence` only changes how
the children's seed words are *computed*: numpy hashes each child's
``SeedSequence`` on its own (~12 µs of object set-up per stream, 2 s for the
170 000 per-peer and per-agent streams of a 10⁵-peer run), this class hashes
a whole ``spawn(n)`` in one pass of array arithmetic.  It rests on a
documented numpy guarantee: "``PCG64`` makes a guarantee that a fixed seed
will always produce the same random integer stream" (``PCG64`` docstring,
*Compatibility Guarantee*), and a seed reaches ``PCG64``'s state only
through the ``SeedSequence`` hash, so the hash cannot change.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from repro.errors import ConfigError

__all__ = ["BatchSeedSequence", "make_rng", "spawn", "choice_without"]

# numpy/random/bit_generator.pyx: the SeedSequence hash (after O'Neill's
# seed_seq_fe), pool of four uint32 words.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int; zero is one word."""
    words = [value & _MASK]
    while value := value >> 32:
        words.append(value & _MASK)
    return words


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for ``k = 0 .. count``.

    ``count`` successive hash steps xor with ``[:-1]`` and multiply by ``[1:]``.
    """
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK)
    return np.array(out, dtype=np.uint32)


def _child_states(
    entropy: int, spawn_key: tuple[int, ...], first: int, n: int
) -> np.ndarray:
    """PCG64 seed words of children ``first .. first + n - 1``: ``(n, 4)`` uint64.

    Row ``i`` equals ``SeedSequence(entropy, spawn_key=spawn_key + (first +
    i,)).generate_state(4, np.uint64)``.  The children's entropy arrays
    differ in their last word only, so everything before it is hashed once
    in Python ints and the last word for all ``n`` at once.
    """
    prefix = _words(entropy)
    # A sequence with a spawn key pads its entropy to the pool size first,
    # so key words never land in the pool-filling stage.
    prefix += [0] * (_POOL - len(prefix))
    for key in spawn_key:
        prefix += _words(key)

    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK
        value = value * const & _MASK
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK
        return result ^ result >> 16

    pool = [hashmix(word) for word in prefix[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in prefix[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    # The child index is the one entropy word left: hashmix it under the next
    # four constants and mix one result into each pool word — (n, 4) at once.
    a = _powers(const, _MULT_A, _POOL)
    mixed = (np.arange(first, first + n, dtype=np.uint32)[:, None] ^ a[:-1]) * a[1:]
    mixed ^= mixed >> 16
    pools = np.array([_MIX_L * p & _MASK for p in pool], dtype=np.uint32) - (
        np.uint32(_MIX_R) * mixed
    )
    pools ^= pools >> 16

    # generate_state(4, uint64): eight uint32 words hashed off the cycled pool.
    b = _powers(_INIT_B, _MULT_B, 2 * _POOL)
    state = (np.tile(pools, 2) ^ b[:-1]) * b[1:]
    state ^= state >> 16
    return state.astype("<u4", copy=False).view("<u8")


class BatchSeedSequence:
    """A ``SeedSequence`` whose ``spawn(n)`` seeds all ``n`` children in one pass.

    Registered as a numpy ``ISpawnableSeedSequence`` (so an ``ISeedSequence``),
    so ``PCG64(seq)``, ``Generator.spawn`` and ``BitGenerator.spawn`` treat
    it like the stock class.  A child holds its four PCG64 seed words until
    ``PCG64`` reads them, then lets go of them (kept, 170 000 row views of the
    word table are 21 MB, 5 % of a 10⁵-peer run); every other request — the
    root's, a second read, another width — is answered by numpy's own
    ``SeedSequence`` built from the same ``entropy`` and ``spawn_key``.
    """

    __slots__ = ("entropy", "spawn_key", "n_children_spawned", "_seed_words")

    def __init__(
        self,
        entropy: int,
        spawn_key: tuple[int, ...] = (),
        _seed_words: np.ndarray | None = None,
    ) -> None:
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.n_children_spawned = 0
        self._seed_words = _seed_words

    def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
        words, self._seed_words = self._seed_words, None
        if words is not None and n_words == 4 and dtype == np.uint64:
            return words
        return np.random.SeedSequence(
            self.entropy, spawn_key=self.spawn_key
        ).generate_state(n_words, dtype)

    def spawn(self, n_children: int) -> list["BatchSeedSequence"]:
        first = self.n_children_spawned
        states = _child_states(self.entropy, self.spawn_key, first, n_children)
        self.n_children_spawned = first + n_children
        return [
            BatchSeedSequence(self.entropy, self.spawn_key + (first + i,), words)
            for i, words in enumerate(states)
        ]


# Registered the way numpy registers its own SeedSequence: with the spawnable
# interface only.  ``isinstance(seq, ISeedSequence)`` — asked by every
# ``PCG64(seq)`` — then resolves through the sub-interface and is cached; a
# direct registration is re-walked on every call (~0.5 µs × 170 000).
ISpawnableSeedSequence.register(BatchSeedSequence)


def make_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """``default_rng(seed)``'s stream; pass through if one is already supplied."""
    if isinstance(seed, np.random.Generator):
        return seed
    try:
        entropy = operator.index(seed)
    except TypeError:
        raise ConfigError(
            f"seed must be an integer, got {seed!r}: runs are reproducible "
            "from their seed, so there is no OS-entropy default"
        ) from None
    return np.random.Generator(np.random.PCG64(BatchSeedSequence(entropy)))


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

