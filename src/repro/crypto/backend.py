"""Abstract interface of the cryptographic backends.

hiREP's protocols only need five operations — keypair generation,
public-key encryption/decryption of Python payloads, and signing /
verification — plus a stable byte serialization of public keys from which
nodeIDs are derived (``nodeID = SHA-1(SP)``, §3.3).

Two interchangeable implementations exist:

* :class:`repro.crypto.rsa.RSABackend` — real textbook RSA; proves the
  protocols end-to-end and is used by the test suite and examples.
* :class:`repro.crypto.simulated.SimulatedBackend` — constant-time envelope
  model with identical failure semantics (wrong key ⇒ error, tampered data ⇒
  verification failure); used for 1000-node experiment sweeps where bignum
  arithmetic would dominate runtime.  This substitution is documented in
  DESIGN.md.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["PublicKey", "PrivateKey", "CipherBackend", "get_backend"]


@dataclass(frozen=True)
class PublicKey:
    """Opaque public key: backend name + serialized material."""

    backend: str
    material: bytes

    def to_bytes(self) -> bytes:
        """Stable byte form used for nodeID derivation and key lists."""
        return self.backend.encode("ascii") + b":" + self.material

    def __repr__(self) -> str:  # keep logs short
        return f"PublicKey({self.backend}, {self.material[:8].hex()}…)"


@dataclass(frozen=True)
class PrivateKey:
    """Opaque private key: backend name + serialized material."""

    backend: str
    material: bytes

    def __repr__(self) -> str:
        return f"PrivateKey({self.backend}, ░░░)"


class CipherBackend(abc.ABC):
    """Strategy interface implemented by the RSA and simulated backends."""

    name: str

    @abc.abstractmethod
    def generate_keypair(self, rng: np.random.Generator) -> tuple[PublicKey, PrivateKey]:
        """Generate a fresh keypair from the supplied generator."""

    @abc.abstractmethod
    def encrypt(self, public: PublicKey, payload: Any) -> Any:
        """Encrypt an arbitrary picklable payload to ``public``."""

    @abc.abstractmethod
    def decrypt(self, private: PrivateKey, ciphertext: Any) -> Any:
        """Decrypt; raises :class:`repro.errors.KeyMismatchError` on the wrong key."""

    @abc.abstractmethod
    def sign(self, private: PrivateKey, payload: Any) -> Any:
        """Produce a signature over ``payload``."""

    @abc.abstractmethod
    def verify(self, public: PublicKey, payload: Any, signature: Any) -> bool:
        """Check a signature; returns False (never raises) on mismatch."""

    def opens(self, private: PrivateKey, fingerprint: bytes) -> bool:
        """Whether ``private`` opens a sealed envelope addressed to
        ``fingerprint``; only the simulated backend seals envelopes."""
        return False

    def check_pair(self, public: PublicKey, private: PrivateKey) -> bool:
        """Round-trip self-test used by handshake verification."""
        probe = b"pair-probe"
        try:
            return self.decrypt(private, self.encrypt(public, probe)) == probe
        except Exception:
            return False


def get_backend(name: str) -> CipherBackend:
    """Factory: ``"rsa"`` or ``"simulated"``."""
    # Imported lazily to avoid import cycles.
    if name == "rsa":
        from repro.crypto.rsa import RSABackend

        return RSABackend()
    if name == "simulated":
        from repro.crypto.simulated import SimulatedBackend

        return SimulatedBackend()
    raise ValueError(f"unknown cipher backend {name!r} (expected 'rsa' or 'simulated')")
