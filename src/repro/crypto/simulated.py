"""Fast simulated cipher backend.

Models public-key operations as tagged envelopes: a ciphertext is an
:class:`Envelope` carrying the key fingerprint it was encrypted to plus the
payload; only the holder of the matching private key can "open" it.  A
signature is a ``(fingerprint, digest)`` pair over a canonical serialization
of the payload.

The *failure semantics are identical* to real RSA — decrypting with the
wrong key raises :class:`~repro.errors.KeyMismatchError`, and any tampering
with a signed payload makes verification return ``False`` — so every
protocol path (including attack-rejection paths) behaves the same as with
the RSA backend, at a tiny fraction of the cost.  The simulation is honest
about what it cannot model: an adversary *inside the simulator* could forge
envelopes by constructing them directly; attack models in
:mod:`repro.attacks` therefore only use the public API, mirroring the
paper's assumption that "public keys cannot be cracked" (§3.5).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.crypto.backend import CipherBackend, PrivateKey, PublicKey
from repro.errors import KeyMismatchError

__all__ = ["SimulatedBackend", "Envelope", "SimSignature"]

_FP_LEN = 16  # fingerprint bytes


@dataclass(frozen=True)
class Envelope:
    """Simulated ciphertext: payload sealed to a key fingerprint."""

    fingerprint: bytes
    payload: Any

    def __repr__(self) -> str:
        return f"Envelope(to={self.fingerprint[:4].hex()}…)"


@dataclass(frozen=True)
class SimSignature:
    """Simulated signature: signer fingerprint + payload digest."""

    fingerprint: bytes
    digest: bytes


def _digest(payload: Any) -> bytes:
    return hashlib.sha256(pickle.dumps(payload)).digest()


class SimulatedBackend(CipherBackend):
    """Envelope-model cipher; see module docstring."""

    name = "simulated"

    def __init__(self) -> None:
        # Private material → fingerprint.  Every decrypt and sign asks, an
        # onion hop is a decrypt, and a node's keys outlive many hops.
        self._fingerprints: dict[bytes, bytes] = {}

    def generate_keypair(self, rng: np.random.Generator) -> tuple[PublicKey, PrivateKey]:
        private = PrivateKey(self.name, rng.bytes(_FP_LEN))
        # Public material is a one-way hash of the secret, so knowing a
        # public key never reveals the private material.
        return PublicKey(self.name, self._fingerprint_of_private(private)), private

    def _fingerprint_of_private(self, private: PrivateKey) -> bytes:
        material = private.material
        fingerprint = self._fingerprints.get(material)
        if fingerprint is None:
            fingerprint = hashlib.sha256(b"simkey:" + material).digest()[:_FP_LEN]
            self._fingerprints[material] = fingerprint
        return fingerprint

    def encrypt(self, public: PublicKey, payload: Any) -> Envelope:
        return Envelope(fingerprint=public.material, payload=payload)

    def decrypt(self, private: PrivateKey, ciphertext: Any) -> Any:
        if not isinstance(ciphertext, Envelope):
            raise KeyMismatchError("not a simulated envelope")
        if self._fingerprint_of_private(private) != ciphertext.fingerprint:
            raise KeyMismatchError("envelope sealed to a different key")
        return ciphertext.payload

    def sign(self, private: PrivateKey, payload: Any) -> SimSignature:
        return SimSignature(
            fingerprint=self._fingerprint_of_private(private),
            digest=_digest(payload),
        )

    def verify(self, public: PublicKey, payload: Any, signature: Any) -> bool:
        if not isinstance(signature, SimSignature):
            return False
        if signature.fingerprint != public.material:
            return False
        return signature.digest == _digest(payload)
