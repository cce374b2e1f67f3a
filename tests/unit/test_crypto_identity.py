"""Unit tests for nodeIDs, key containers and the nonce registry."""

import numpy as np
import pytest

from repro.crypto.backend import PublicKey
from repro.crypto.hashing import (
    NODE_ID_LEN,
    node_id_from_key,
    node_id_hex,
    verify_node_id,
)
from repro.crypto.keys import KeyPair, PeerKeys
from repro.crypto.nonce import NonceRegistry
from repro.errors import ConfigError, ReplayError

#: PCG64's 128-bit LCG multiplier: the state steps as ``s·M + inc``, and
#: the output word is ``rotr(high ^ low, high >> 58)`` of the new state.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def zero_word_next(seed: int) -> np.random.Generator:
    """A PCG64 generator whose next raw word is 0: the one word numpy's
    ``integers(1, 2**64, dtype=np.uint64)`` rejects and draws again for."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    half = 0x0123456789ABCDEF
    stepped = (half << 64) | half  # high ^ low == 0
    state["state"]["state"] = (stepped - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128
    rng.bit_generator.state = state
    assert rng.bit_generator.random_raw(1)[0] == 0
    rng.bit_generator.state = state
    return rng


class StubWords:
    """A bit generator stand-in handing out fixed raw words, in order."""

    def __init__(self, words: list[int]) -> None:
        self._words = iter(words)

    def random_raw(self, size: int | None = None):
        if size is None:
            return next(self._words)
        return np.array([next(self._words) for _ in range(size)], dtype=np.uint64)


class TestNodeID:
    def test_deterministic(self, sim_backend, rng):
        pub, _ = sim_backend.generate_keypair(rng)
        assert node_id_from_key(pub) == node_id_from_key(pub)

    def test_length(self, sim_backend, rng):
        pub, _ = sim_backend.generate_keypair(rng)
        assert len(node_id_from_key(pub)) == NODE_ID_LEN

    def test_distinct_keys_distinct_ids(self, sim_backend, rng):
        a, _ = sim_backend.generate_keypair(rng)
        b, _ = sim_backend.generate_keypair(rng)
        assert node_id_from_key(a) != node_id_from_key(b)

    def test_verify_accepts_matching(self, sim_backend, rng):
        pub, _ = sim_backend.generate_keypair(rng)
        assert verify_node_id(node_id_from_key(pub), pub)

    def test_verify_rejects_substituted_key(self, sim_backend, rng):
        """The MITM defence: a nodeID pins exactly one public key."""
        pub, _ = sim_backend.generate_keypair(rng)
        attacker_pub, _ = sim_backend.generate_keypair(rng)
        assert not verify_node_id(node_id_from_key(pub), attacker_pub)

    def test_verify_rejects_wrong_length(self, sim_backend, rng):
        pub, _ = sim_backend.generate_keypair(rng)
        assert not verify_node_id(b"short", pub)

    def test_hex_short_form(self, sim_backend, rng):
        pub, _ = sim_backend.generate_keypair(rng)
        assert len(node_id_hex(node_id_from_key(pub))) == 12

    def test_backend_name_in_derivation(self):
        """Same material under different backend names gives different IDs."""
        a = PublicKey("rsa", b"same")
        b = PublicKey("simulated", b"same")
        assert node_id_from_key(a) != node_id_from_key(b)


class TestPeerKeys:
    def test_generate_distinct_pairs(self, backend, rng):
        keys = PeerKeys.generate(backend, rng)
        assert keys.sp != keys.ap
        assert keys.sr != keys.ar

    def test_node_id_derived_from_sp(self, backend, rng):
        keys = PeerKeys.generate(backend, rng)
        assert keys.node_id == node_id_from_key(keys.sp)

    def test_rotated_gives_fresh_identity(self, sim_backend, rng):
        keys = PeerKeys.generate(sim_backend, rng)
        fresh = keys.rotated(sim_backend, rng)
        assert fresh.node_id != keys.node_id
        assert fresh.sp != keys.sp

    def test_keypair_generate(self, sim_backend, rng):
        pair = KeyPair.generate(sim_backend, rng)
        assert sim_backend.check_pair(pair.public, pair.private)


class TestNonceRegistry:
    def test_issue_unique(self, rng):
        reg = NonceRegistry(rng)
        nonces = {reg.issue() for _ in range(1000)}
        assert len(nonces) == 1000

    def test_accept_then_replay_raises(self, rng):
        reg = NonceRegistry(rng)
        reg.accept(42)
        with pytest.raises(ReplayError):
            reg.accept(42)

    def test_has_seen(self, rng):
        reg = NonceRegistry(rng)
        assert not reg.has_seen(7)
        reg.accept(7)
        assert reg.has_seen(7)

    def test_capacity_eviction_keeps_recent(self, rng):
        reg = NonceRegistry(rng, capacity=10)
        for i in range(100):
            reg.accept(i)
        # The most recent nonce must still be guarded.
        with pytest.raises(ReplayError):
            reg.accept(99)

    def test_issue_overflow_forgets_the_oldest_half(self, rng):
        """Past ``capacity`` the registry keeps the newest nonces it issued,
        in issue order (a plain ``set`` kept a hash-ordered half)."""
        reg = NonceRegistry(rng, capacity=8)
        nonces = [reg.issue() for _ in range(8)]
        assert list(reg._issued) == nonces
        nonces.append(reg.issue())  # the ninth crosses the capacity
        assert list(reg._issued) == nonces[4:]
        nonces += reg.issue_many(3)
        assert list(reg._issued) == nonces[4:]
        nonces += reg.issue_many(2)  # 8 stored + 2: crosses it again
        assert list(reg._issued) == nonces[8:]
        assert len(set(nonces)) == len(nonces)

    def test_capacity_validation(self, rng):
        with pytest.raises(ValueError):
            NonceRegistry(rng, capacity=1)

    def test_refuses_a_generator_not_on_pcg64(self):
        with pytest.raises(ConfigError, match="MT19937"):
            NonceRegistry(np.random.Generator(np.random.MT19937(1)))

    def test_zero_words_are_skipped_in_order(self, rng):
        """Zero words and repeats are drawn past, singly and in a batch,
        and the batch's shortfall is drawn after the vector."""
        reg = NonceRegistry(rng)
        reg._raw = StubWords([0, 5, 0, 0, 7, 5, 9, 0, 3, 3, 0, 4, 8]).random_raw
        assert [reg.issue(), reg.issue(), reg.issue()] == [5, 7, 9]
        assert reg.issue_many(3) == [3, 4, 8]  # vector [0, 3, 3], then 0, 4, 8
        assert list(reg._issued) == [5, 7, 9, 3, 4, 8]

    @pytest.mark.parametrize("k", [None, 1, 3])
    def test_zero_word_is_redrawn_as_numpy_does(self, k):
        rng, twin = zero_word_next(7), zero_word_next(7)
        reg = NonceRegistry(rng)
        got = [reg.issue()] if k is None else reg.issue_many(k)
        want = [int(twin.integers(1, 2**64, dtype=np.uint64)) for _ in got]
        assert got == want and 0 not in got
        assert rng.bit_generator.state == twin.bit_generator.state

