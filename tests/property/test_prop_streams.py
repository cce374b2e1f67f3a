"""Property test: the batch-derived stream tree against stock numpy's.

:func:`repro.sim.rng.make_rng` roots every run in a
:class:`~repro.sim.rng.BatchSeedSequence`, which seeds a whole ``spawn(n)``
in one array pass of numpy's ``SeedSequence`` hash;
``numpy.random.default_rng(seed)`` hashes one child at a time and is the
reference.  Hypothesis picks the seed (0, one word, two words, up to five
words) and a spawn plan of depth ≤ 3 — per node a list of ``spawn(n)``
calls, ``n = 0`` included, so a parent spawns *repeatedly* and child
numbering has to continue — and both trees are walked with plain
``Generator.spawn``.  Every node must agree on ``bit_generator.state``, on
its seed sequence's ``spawn_key`` and a second, differently-sized
``generate_state`` read, and on the first ``random()``, ``uniform(lo, hi)``
and ``integers(1, 2**64, dtype=np.uint64)`` draws (the three draw shapes the
kernels use); every spawned child must again be a ``BatchSeedSequence``
stream, i.e. numpy's own dispatch keeps the tree on the one code path.

Shown to fail under each of these seeded mutations of ``repro/sim/rng.py``:
the A and B hash constants swapped; entropy not zero-padded to the pool
size before the spawn key; child numbering restarted at 0 on a second
``spawn``; ``_words`` emitting big-endian word order (seeds ≥ 2³²).

:func:`repro.sim.rng.spawn` hands the children out lazily (a
:class:`~repro.sim.rng.Streams` builds child ``i``'s ``Generator`` when
``i`` is first read); its test reads a lazy ``spawn(n)`` in any order,
after any earlier spawns, against ``default_rng(seed).spawn(n)``.  Shown to
fail under each of these seeded mutations: the parent's counter advanced on
read instead of at the call; ``first`` dropped from the child's spawn key;
a negative index passed to the spawn key unnormalised.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.rng import BatchSeedSequence, make_rng, spawn

SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**160 - 1),
)


def plans(depth):
    """Per node: ``[(n_children, plan for each child), ...]``, one per spawn call."""
    if depth == 0:
        return st.just([])
    return st.lists(st.tuples(st.integers(0, 6), plans(depth - 1)), max_size=3)


def walk(ours, ref, plan, lo, hi):
    ours_seq, ref_seq = ours.bit_generator.seed_seq, ref.bit_generator.seed_seq
    assert type(ours_seq) is BatchSeedSequence
    assert ours.bit_generator.state == ref.bit_generator.state
    assert ours_seq.spawn_key == ref_seq.spawn_key
    assert np.array_equal(ours_seq.generate_state(3), ref_seq.generate_state(3))
    assert ours.random() == ref.random()
    assert ours.uniform(lo, hi) == ref.uniform(lo, hi)
    assert ours.integers(1, 2**64, dtype=np.uint64) == ref.integers(
        1, 2**64, dtype=np.uint64
    )
    for n, child_plan in plan:
        ours_children, ref_children = ours.spawn(n), ref.spawn(n)
        assert len(ours_children) == n
        assert ours_seq.n_children_spawned == ref_seq.n_children_spawned
        for pair in zip(ours_children, ref_children):
            walk(*pair, child_plan, lo, hi)


@given(
    seed=SEEDS,
    plan=plans(3),
    lo=st.floats(-1e6, 1e6),
    width=st.floats(0, 1e6),
)
@settings(max_examples=60, deadline=None)
def test_stream_tree_equals_default_rng(seed, plan, lo, width):
    walk(make_rng(seed), np.random.default_rng(seed), plan, lo, lo + width)


def assert_same_child(ours, ref):
    """``ours`` and ``ref`` are one stream: state, key, draws, spawns, copies."""
    ours_seq, ref_seq = ours.bit_generator.seed_seq, ref.bit_generator.seed_seq
    assert ours.bit_generator.state == ref.bit_generator.state
    assert ours_seq.spawn_key == ref_seq.spawn_key
    assert all(type(key) is int for key in ours_seq.spawn_key)
    for clone in (pickle.loads(pickle.dumps(ours)), copy.deepcopy(ours)):
        assert clone.bit_generator.state == ref.bit_generator.state
        assert clone.random() == copy.deepcopy(ref).random()
    assert ours.random() == ref.random()
    assert ours.integers(1, 2**64, dtype=np.uint64) == ref.integers(
        1, 2**64, dtype=np.uint64
    )
    (ours_child,), (ref_child,) = ours.spawn(1), ref.spawn(1)
    assert ours_child.bit_generator.state == ref_child.bit_generator.state


@given(
    seed=SEEDS,
    earlier=st.lists(st.integers(0, 5), max_size=3),
    n=st.integers(0, 8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_lazy_spawn_equals_eager_children(seed, earlier, n, data):
    ours, ref = make_rng(seed), np.random.default_rng(seed)
    for count in earlier:
        spawn(ours, count)
        ref.spawn(count)
    lazy, eager = spawn(ours, n), ref.spawn(n)
    # The children are numbered at the call, before any of them is read.
    assert ours.bit_generator.seed_seq.n_children_spawned == sum(earlier) + n
    assert len(lazy) == n
    if n:
        indices = st.integers(-n, n - 1)
        reads = data.draw(
            st.lists(st.tuples(indices, st.sampled_from([int, np.int64])), max_size=2 * n)
        )
        for index, kind in reads:
            child = lazy[kind(index)]
            assert child is lazy[index]
            assert_same_child(child, eager[index])
    children = list(lazy)
    assert len(children) == n
    for child, want in zip(children, eager):
        assert_same_child(child, want)
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            lazy[index]


def test_spawn_refuses_streams_not_rooted_in_make_rng():
    for rng in (
        np.random.default_rng(3),
        np.random.Generator(np.random.Philox(3)),
        np.random.Generator(np.random.PCG64DXSM(BatchSeedSequence(3))),
    ):
        with pytest.raises(ConfigError):
            spawn(rng, 2)
