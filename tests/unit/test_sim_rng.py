"""Unit tests for seeded-RNG helpers."""

import copy
import pickle

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sim.rng import choice_without, make_rng, spawn


def test_make_rng_from_seed_reproducible():
    a = make_rng(7).integers(0, 1000, 10)
    b = make_rng(7).integers(0, 1000, 10)
    assert np.array_equal(a, b)


def test_make_rng_passthrough():
    gen = np.random.default_rng(1)
    assert make_rng(gen) is gen


def test_make_rng_none_is_config_error():
    # reproducible from the seed: there is no OS-entropy default
    for seed in (None, 1.5, "7", [7]):
        with pytest.raises(ConfigError):
            make_rng(seed)


def test_make_rng_is_default_rng():
    for seed in (0, 7, np.int64(7), 2**70 + 1):
        ours, stock = make_rng(seed), np.random.default_rng(seed)
        assert ours.bit_generator.state == stock.bit_generator.state
    with pytest.raises(ValueError):
        make_rng(-1)


def test_spawned_streams_survive_pickle_and_deepcopy():
    # PCG64 pickles its seed sequence: the copy must keep spawning in step.
    parent = spawn(make_rng(5), 3)[1]
    stock = np.random.default_rng(5).spawn(3)[1]
    for clone in (pickle.loads(pickle.dumps(parent)), copy.deepcopy(parent)):
        assert clone.bit_generator.state == stock.bit_generator.state
        assert clone.spawn(2)[1].random() == copy.deepcopy(stock).spawn(2)[1].random()


def test_spawn_children_independent():
    parent = make_rng(3)
    a, b = spawn(parent, 2)
    assert not np.array_equal(a.integers(0, 10**9, 20), b.integers(0, 10**9, 20))


def test_spawn_count():
    assert len(spawn(make_rng(0), 5)) == 5
    assert spawn(make_rng(0), 0) == []


def test_spawn_negative_rejected():
    with pytest.raises(ValueError):
        spawn(make_rng(0), -1)


def test_choice_without_never_returns_excluded():
    rng = make_rng(11)
    for _ in range(500):
        assert choice_without(rng, 5, 2) != 2


def test_choice_without_covers_all_other_values():
    rng = make_rng(12)
    seen = {choice_without(rng, 4, 0) for _ in range(200)}
    assert seen == {1, 2, 3}


def test_choice_without_needs_two():
    with pytest.raises(ValueError):
        choice_without(make_rng(0), 1, 0)

