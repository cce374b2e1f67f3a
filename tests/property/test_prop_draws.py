"""Property tests: batched or shortened draws against the forms they replace.

The operator pays for a leg's randomness in one call where it used to pay
per row; each batched or shortened form is pinned here to the form it
replaces, which stays in the test as the oracle — equal results *and*
equal ``bit_generator.state``, so no later draw on the stream can move.

(a) :meth:`NonceRegistry.issue` is ``int(rng.integers(1, 2**64,
    dtype=np.uint64))`` — numpy's bounded draw, which the registry replaces
    by the raw PCG64 word — redrawn while the value was issued before, and
    :meth:`NonceRegistry.issue_many` is ``k ×`` :meth:`NonceRegistry.issue`.
    Three registries over three twin generators — one issuing in batches,
    one one at a time, and the oracle, the registry as it stood, calling
    ``integers`` — run generated interleavings of ``issue_many(k)`` (k ∈
    0…12), single ``issue()`` calls and foreign draws on the shared stream
    (a handshake responder shares a peer's generator): buffered 32-bit
    ``integers(0, m)`` draws, which leave half a word in the generator's
    carry, doubles and shuffles.  All three must leave equal nonces, equal
    ``_issued`` content *and order*, and equal generator state.  Collisions
    are forced at the full 64-bit width by loading the next few words of
    the stream into every ``_issued`` before a draw; capacities are small
    enough that the trim is crossed mid-sequence.  (A zero word, the one
    value numpy's bounded draw rejects, is pinned in the unit tests.)
(b) :func:`~repro.core.semantics.rate` — the one §5.2 rating draw, for
    hiREP's agents and every baseline's voters alike — is
    ``float(rng.uniform(lo, hi))`` on the range it picks: consistent /
    inconsistent rater × truth either side of 0.5, generated ranges
    including ``lo == hi``; :meth:`QualityDrivenModel.evaluate` is
    ``rate`` on the model's own quality and ranges.
(c) :func:`aggregate_estimate`'s unweighted fallback is bit-equal to
    ``float(np.mean(values))`` for 1–70 values (numpy's pairwise sum
    changes shape at 8 elements).
(d) :func:`~repro.onion.onion.draw_relays` — every executor's §3.3 relay
    draw — picks from ``online_indices()`` around the owner's slot; the
    form that first built the pool (``online[online != owner]``, an O(N)
    compare and boolean index per rebuild) is the oracle.  Generated
    liveness masks over 3–40 nodes with the owner online, offline, alone
    online and everyone offline, ``count`` from 0 to past the pool.
(e) The §3.4.1 flood's one-token remainder,
    :func:`~repro.core.discovery.discover_agent_lists`' ``rng.integers(0,
    k)``, is ``rng.choice(k, size=1, replace=False)`` — the call it
    replaces, kept as the oracle — for ``k`` from 1 to 4 096, past the
    largest degree of a Table 1 topology (50 at N = 1 000, 167 at 10⁴, 492
    at 10⁵), with foreign draws interleaved that leave half a word in the
    generator's carry.

Shown to fail under each of these seeded mutations: (a) the batch added to
``_issued`` as a set union (``issued.update(dict.fromkeys(set(draws)))``)
instead of in draw order — with ``_issued`` still a ``set``, before the
trim fix, nothing else was possible; the collision replay skipped (the
vector returned as drawn); ``random_raw(k + 1)``; the capacity fallback
ignored; the raw word taken through ``next_uint32`` halves (the carry);
(b) ``hi - (hi - lo) * rng.random()`` in ``rate``; an inconsistent
rater's ranges not swapped (``use_good = trustable``); (c) a plain
``sum(values) / n``, which only diverges from numpy's pairwise sum at 8+
elements; (d) picks not stepped over the owner (``online[picks]``);
stepped from the slot after (``picks > slot``); ``searchsorted(..., side="right")``; the pool
one short whether or not the owner is online (``pool_len = len(online) -
1``); an offline owner's insertion point kept as its slot; (e)
``rng.integers(0, k - 1)``, ``rng.integers(0, k, endpoint=True)``,
``int(rng.random() * k)`` and the choice over ``k + 1``
(``rng.integers(1, k + 1) - 1`` and an ``int32`` dtype survive: they make
the same bounded draw).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantics import aggregate_estimate, rate
from repro.core.trust_models import QualityDrivenModel
from repro.crypto.nonce import NonceRegistry
from repro.net.topology import ring_lattice
from repro.onion.onion import draw_relays
from repro.vector.network import ArrayNetwork


class OracleRegistry(NonceRegistry):
    """``issue`` as it stood: numpy's bounded 64-bit draw, one at a time."""

    def __init__(self, rng: np.random.Generator, capacity: int) -> None:
        super().__init__(rng, capacity=capacity)
        self._rng = rng

    def issue(self) -> int:
        while True:
            nonce = int(self._rng.integers(1, 2**64, dtype=np.uint64))
            if nonce not in self._issued:
                self._remember(self._issued, nonce)
                return nonce

    def issue_many(self, k: int) -> list[int]:
        return [self.issue() for _ in range(k)]


def upcoming_words(rng: np.random.Generator, count: int) -> list[int]:
    """The next ``count`` raw words of ``rng``, read from a copy of its state."""
    peek = np.random.PCG64()
    peek.state = rng.bit_generator.state
    return peek.random_raw(count).tolist()


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("many"), st.integers(0, 12)),
        st.tuples(st.just("one"), st.just(1)),
        st.tuples(st.just("collide"), st.integers(1, 6)),
        st.tuples(st.just("int32"), st.integers(1, 2**32)),
        st.tuples(st.just("double"), st.just(0)),
        st.tuples(st.just("shuffle"), st.integers(0, 9)),
    ),
    max_size=14,
)


def foreign_draw(rng: np.random.Generator, op: str, arg: int) -> object:
    if op == "int32":
        return int(rng.integers(0, arg))
    if op == "double":
        return rng.random()
    deck = list(range(arg))
    rng.shuffle(deck)
    return deck


@given(seed=st.integers(0, 2**32 - 1), capacity=st.integers(2, 40), ops=OPS)
@settings(max_examples=300, deadline=None)
def test_issue_many_is_k_times_issue(seed, capacity, ops):
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    batched, single = (NonceRegistry(rng, capacity=capacity) for rng in rngs[:2])
    oracle = OracleRegistry(rngs[2], capacity)
    registries = (batched, single, oracle)
    for op, arg in ops:
        if op == "many":
            got = batched.issue_many(arg)
            assert len(got) == arg
            assert got == [single.issue() for _ in range(arg)] == oracle.issue_many(arg)
        elif op == "one":
            assert batched.issue() == single.issue() == oracle.issue()
        elif op == "collide":
            # Whatever is drawn next was issued already: every one of the
            # next ``arg`` words is redrawn, at the real width.
            for reg in registries:
                for word in upcoming_words(rngs[0], arg):
                    reg._remember(reg._issued, word)
        else:
            assert len({repr(foreign_draw(rng, op, arg)) for rng in rngs}) == 1
        assert list(batched._issued) == list(single._issued) == list(oracle._issued)
        assert (
            rngs[0].bit_generator.state
            == rngs[1].bit_generator.state
            == rngs[2].bit_generator.state
        )


UNIT = st.floats(0.0, 1.0)
RANGE = st.tuples(UNIT, UNIT).map(sorted).map(tuple)


@given(
    seed=st.integers(0, 2**32 - 1),
    good=st.booleans(),
    good_range=RANGE,
    bad_range=RANGE,
    truths=st.lists(UNIT, min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_quality_driven_evaluate_is_rng_uniform(seed, good, good_range, bad_range, truths):
    model = QualityDrivenModel(good, good_range, bad_range)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for truth in truths:
        consistent = (truth >= 0.5) == good
        lo, hi = good_range if consistent else bad_range
        value = model.evaluate(b"subject", truth, rng)
        assert type(value) is float
        assert value == float(ref.uniform(lo, hi))
        assert rng.bit_generator.state == ref.bit_generator.state


@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.lists(
        st.tuples(st.booleans(), UNIT, RANGE, RANGE), min_size=1, max_size=8
    ),
)
@settings(max_examples=200, deadline=None)
def test_rate_is_rng_uniform(seed, draws):
    rng, ref, twin = (np.random.default_rng(seed) for _ in range(3))
    for consistent_rater, truth, good_range, bad_range in draws:
        lo, hi = good_range if (truth >= 0.5) == consistent_rater else bad_range
        value = rate(consistent_rater, truth, rng, good_range, bad_range)
        assert type(value) is float
        assert value == float(ref.uniform(lo, hi))
        model = QualityDrivenModel(consistent_rater, good_range, bad_range)
        assert model.evaluate(b"subject", truth, twin) == value
        assert (
            rng.bit_generator.state
            == ref.bit_generator.state
            == twin.bit_generator.state
        )


@given(values=st.lists(UNIT, min_size=1, max_size=70))
@settings(max_examples=300, deadline=None)
def test_unweighted_estimate_is_numpy_mean(values):
    estimate = aggregate_estimate(values, [0.0] * len(values))
    assert type(estimate) is float
    assert estimate == float(np.mean(values))


def _draw_from_a_built_pool(network, owner, count, rng):
    """``draw_relays`` as it was: build the pool, then pick from it."""
    online = network.online_indices()
    pool = online[online != owner]
    size = min(count, len(pool))
    if size <= 0:
        return []
    return pool[rng.choice(len(pool), size=size, replace=False)].tolist()


@given(
    seed=st.integers(0, 2**32 - 1),
    alive=st.lists(st.booleans(), min_size=3, max_size=40),
    owner=st.integers(0, 39),
    only_owner=st.booleans(),
    count=st.integers(-1, 44),
)
@settings(max_examples=400, deadline=None)
def test_draw_relays_is_the_draw_from_a_built_pool(seed, alive, owner, only_owner, count):
    n = len(alive)
    owner %= n
    network = ArrayNetwork(ring_lattice(n, 1), np.random.default_rng(0))
    for node, up in enumerate(alive):
        network.set_online(node, (up and not only_owner) or (only_owner and node == owner))
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    relays = draw_relays(network, owner, count, rng)
    assert relays == _draw_from_a_built_pool(network, owner, count, twin)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert all(type(relay) is int for relay in relays)


FOREIGN = st.one_of(
    st.tuples(st.just("int32"), st.integers(1, 2**32)),
    st.tuples(st.just("double"), st.just(0)),
    st.tuples(st.just("shuffle"), st.integers(0, 9)),
)


@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.lists(
        st.tuples(st.integers(1, 4096), st.lists(FOREIGN, max_size=2)),
        min_size=1,
        max_size=10,
    ),
)
@settings(max_examples=400, deadline=None)
def test_one_token_remainder_is_the_choice_of_one(seed, draws):
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for k, foreign in draws:
        for op, arg in foreign:
            assert repr(foreign_draw(rng, op, arg)) == repr(foreign_draw(oracle, op, arg))
        assert rng.integers(0, k) == oracle.choice(k, size=1, replace=False)[0]
        assert rng.bit_generator.state == oracle.bit_generator.state
