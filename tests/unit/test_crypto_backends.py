"""Unit tests for both cipher backends (shared behavioural contract)."""

import pytest

from repro.crypto.backend import PublicKey, get_backend
from repro.crypto.rsa import RSABackend, keypair_modulus
from repro.crypto.simulated import Envelope, SimSignature, SimulatedBackend
from repro.errors import CryptoError, KeyMismatchError


@pytest.fixture
def pair(backend, rng):
    return backend.generate_keypair(rng)


PAYLOADS = [
    b"short",
    b"\x00" * 300,                       # trailing/leading zeros survive
    {"nested": [1, 2.5, ("a", b"b")]},
    "unicode ☃ text",
    12345678901234567890,
    None,
]


@pytest.mark.parametrize("payload", PAYLOADS)
def test_encrypt_decrypt_roundtrip(backend, rng, payload):
    pub, priv = backend.generate_keypair(rng)
    assert backend.decrypt(priv, backend.encrypt(pub, payload)) == payload


def test_decrypt_with_wrong_key_fails(backend, rng):
    pub, _ = backend.generate_keypair(rng)
    _, wrong_priv = backend.generate_keypair(rng)
    ct = backend.encrypt(pub, {"secret": 1})
    with pytest.raises(CryptoError):
        backend.decrypt(wrong_priv, ct)


def test_sign_verify_roundtrip(backend, rng):
    pub, priv = backend.generate_keypair(rng)
    sig = backend.sign(priv, ("msg", 42))
    assert backend.verify(pub, ("msg", 42), sig)


def test_tampered_payload_fails_verification(backend, rng):
    pub, priv = backend.generate_keypair(rng)
    sig = backend.sign(priv, ("msg", 42))
    assert not backend.verify(pub, ("msg", 43), sig)


def test_wrong_signer_fails_verification(backend, rng):
    pub, _ = backend.generate_keypair(rng)
    _, other_priv = backend.generate_keypair(rng)
    sig = backend.sign(other_priv, "msg")
    assert not backend.verify(pub, "msg", sig)


def test_garbage_signature_fails_not_raises(backend, rng):
    pub, _ = backend.generate_keypair(rng)
    assert not backend.verify(pub, "msg", b"not a signature")
    assert not backend.verify(pub, "msg", None)
    assert not backend.verify(pub, "msg", 12345)


def test_check_pair_true_for_matching(backend, rng):
    pub, priv = backend.generate_keypair(rng)
    assert backend.check_pair(pub, priv)


def test_check_pair_false_for_mismatched(backend, rng):
    pub, _ = backend.generate_keypair(rng)
    _, other = backend.generate_keypair(rng)
    assert not backend.check_pair(pub, other)


def test_keys_unique_across_draws(backend, rng):
    keys = {backend.generate_keypair(rng)[0].material for _ in range(10)}
    assert len(keys) == 10


def test_public_key_to_bytes_stable(backend, rng):
    pub, _ = backend.generate_keypair(rng)
    assert pub.to_bytes() == pub.to_bytes()
    assert pub.backend.encode() in pub.to_bytes()


def test_get_backend_names():
    assert isinstance(get_backend("rsa"), RSABackend)
    assert isinstance(get_backend("simulated"), SimulatedBackend)
    with pytest.raises(ValueError):
        get_backend("quantum")


# -- RSA specifics -----------------------------------------------------------


def test_rsa_modulus_size(rng):
    backend = RSABackend(bits=256)
    pub, priv = backend.generate_keypair(rng)
    assert keypair_modulus(pub).bit_length() == 256
    assert keypair_modulus(pub) == keypair_modulus(priv)


def test_rsa_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        RSABackend(bits=64)


def test_rsa_multi_chunk_payload(rng):
    backend = RSABackend(bits=256)
    pub, priv = backend.generate_keypair(rng)
    payload = b"x" * 5000  # many chunks
    assert backend.decrypt(priv, backend.encrypt(pub, payload)) == payload


def test_rsa_decrypt_non_bytes_raises(rng):
    backend = RSABackend()
    _, priv = backend.generate_keypair(rng)
    with pytest.raises(KeyMismatchError):
        backend.decrypt(priv, {"not": "bytes"})


def test_rsa_decrypt_truncated_ciphertext_raises(rng):
    backend = RSABackend()
    pub, priv = backend.generate_keypair(rng)
    ct = backend.encrypt(pub, b"hello")
    with pytest.raises(KeyMismatchError):
        backend.decrypt(priv, ct[:-5])


def test_keypair_modulus_rejects_non_rsa():
    with pytest.raises(CryptoError):
        keypair_modulus(PublicKey("simulated", b"xx"))


# -- simulated specifics -------------------------------------------------------


def test_simulated_envelope_repr_short(rng):
    backend = SimulatedBackend()
    pub, _ = backend.generate_keypair(rng)
    env = backend.encrypt(pub, "data")
    assert isinstance(env, Envelope)
    assert len(repr(env)) < 60


def test_simulated_public_material_hides_secret(rng):
    backend = SimulatedBackend()
    pub, priv = backend.generate_keypair(rng)
    assert pub.material != priv.material


def test_simulated_decrypt_non_envelope_raises(rng):
    backend = SimulatedBackend()
    _, priv = backend.generate_keypair(rng)
    with pytest.raises(KeyMismatchError):
        backend.decrypt(priv, b"raw bytes")


def test_simulated_signature_type(rng):
    backend = SimulatedBackend()
    _, priv = backend.generate_keypair(rng)
    assert isinstance(backend.sign(priv, "x"), SimSignature)


def test_simulated_fingerprint_memo_keeps_the_key_check(rng):
    """The private-key fingerprint is hashed once per key material; what is
    remembered is still compared on every decrypt, per key."""
    backend = SimulatedBackend()
    pub_a, priv_a = backend.generate_keypair(rng)
    pub_b, priv_b = backend.generate_keypair(rng)
    for _ in range(2):  # the second pass reads the memo
        assert backend.decrypt(priv_a, backend.encrypt(pub_a, "a")) == "a"
        assert backend.decrypt(priv_b, backend.encrypt(pub_b, "b")) == "b"
        with pytest.raises(KeyMismatchError):
            backend.decrypt(priv_a, backend.encrypt(pub_b, "b"))
        with pytest.raises(KeyMismatchError):
            backend.decrypt(priv_b, backend.encrypt(pub_a, "a"))
        assert backend.verify(pub_a, "x", backend.sign(priv_a, "x"))
        assert not backend.verify(pub_b, "x", backend.sign(priv_a, "x"))
    assert len(backend._fingerprints) == 2
    # A second backend instance (a second system) agrees with the first.
    assert SimulatedBackend().decrypt(priv_a, backend.encrypt(pub_a, "a")) == "a"
