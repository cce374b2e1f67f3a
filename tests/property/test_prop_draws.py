"""Property tests: batched or shortened draws against the forms they replace.

The operator pays for a leg's randomness in one call where it used to pay
per row; each batched or shortened form is pinned here to the form it
replaces, which stays in the test as the oracle — equal results *and*
equal ``bit_generator.state``, so no later draw on the stream can move.

(a) :meth:`NonceRegistry.issue_many` is ``k ×`` :meth:`NonceRegistry.issue`
    on a twin registry over a twin generator: generated interleavings of
    ``issue_many(k)`` (k ∈ 0…12), single ``issue()`` calls and foreign
    draws on the shared stream (a handshake responder shares a peer's
    generator) must leave equal nonces, equal ``_issued`` content *and
    order*, and equal generator state.  Run at the real 64-bit width and
    with ``_NONCE_BITS`` shrunk to 6, where 63 possible nonces make
    collisions with issued nonces and within one batch routine; capacities
    are small enough that the trim is crossed mid-sequence.
(b) :meth:`QualityDrivenModel.evaluate` is ``float(rng.uniform(lo, hi))``
    on the range the model picks — good / poor × truth either side of 0.5,
    generated ranges including ``lo == hi``.
(c) :func:`aggregate_estimate`'s unweighted fallback is bit-equal to
    ``float(np.mean(values))`` for 1–70 values (numpy's pairwise sum
    changes shape at 8 elements).
(d) :func:`~repro.onion.onion.draw_relays` — every executor's §3.3 relay
    draw — picks from ``online_indices()`` around the owner's slot; the
    form that first built the pool (``online[online != owner]``, an O(N)
    compare and boolean index per rebuild) is the oracle.  Generated
    liveness masks over 3–40 nodes with the owner online, offline, alone
    online and everyone offline, ``count`` from 0 to past the pool.

Shown to fail under each of these seeded mutations: (a) the batch added to
``_issued`` as a set union (``issued.update(dict.fromkeys(set(draws)))``)
instead of in draw order — with ``_issued`` still a ``set``, before the
trim fix, nothing else was possible; the collision replay skipped (the
vector returned as drawn); ``size=k + 1``; the capacity fallback ignored;
(b) ``hi - (hi - lo) * rng.random()``; (c) a plain ``sum(values) / n``,
which only diverges from numpy's pairwise sum at 8+ elements; (d) picks
not stepped over the owner (``online[picks]``); stepped from the slot
after (``picks > slot``); ``searchsorted(..., side="right")``; the pool
one short whether or not the owner is online (``pool_len = len(online) -
1``); an offline owner's insertion point kept as its slot.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantics import aggregate_estimate
from repro.core.trust_models import QualityDrivenModel
from repro.crypto import nonce as nonce_module
from repro.crypto.nonce import NonceRegistry
from repro.net.topology import ring_lattice
from repro.onion.onion import draw_relays
from repro.vector.network import ArrayNetwork

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("many"), st.integers(0, 12)),
        st.tuples(st.just("one"), st.just(1)),
        st.tuples(st.just("foreign"), st.just(0)),
    ),
    max_size=14,
)


@given(
    seed=st.integers(0, 2**32 - 1),
    bits=st.sampled_from([6, 64]),
    capacity=st.integers(2, 40),
    ops=OPS,
)
@settings(max_examples=300, deadline=None)
def test_issue_many_is_k_times_issue(seed, bits, capacity, ops):
    batched_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batched = NonceRegistry(batched_rng, capacity=capacity)
    single = NonceRegistry(single_rng, capacity=capacity)
    with mock.patch.object(nonce_module, "_NONCE_BITS", bits):
        for op, k in ops:
            if op == "many":
                got = batched.issue_many(k)
                assert len(got) == k
                assert got == [single.issue() for _ in range(k)]
            elif op == "one":
                assert batched.issue() == single.issue()
            else:
                assert batched_rng.random() == single_rng.random()
            assert list(batched._issued) == list(single._issued)
            assert batched_rng.bit_generator.state == single_rng.bit_generator.state


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
