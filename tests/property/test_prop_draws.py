"""Property tests: the array kernel's per-leg draws against the per-row ones.

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

Shown to fail under each of these seeded mutations: (a) the batch added to
``_issued`` as a set union (``issued.update(dict.fromkeys(set(draws)))``)
instead of in draw order — with ``_issued`` still a ``set``, before the
trim fix, nothing else was possible; the collision replay skipped (the
vector returned as drawn); ``size=k + 1``; the capacity fallback ignored;
(b) ``hi - (hi - lo) * rng.random()``; (c) a plain ``sum(values) / n``,
which only diverges from numpy's pairwise sum at 8+ elements.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantics import aggregate_estimate
from repro.core.trust_models import QualityDrivenModel
from repro.crypto import nonce as nonce_module
from repro.crypto.nonce import NonceRegistry

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
