"""Exception hierarchy for the hiREP reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subsystems raise the most specific subclass available;
nothing in this package raises bare ``Exception``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "CryptoError",
    "KeyMismatchError",
    "SignatureError",
    "ReplayError",
    "NetworkError",
    "UnknownNodeError",
    "OnionError",
    "OnionPeelError",
    "StaleOnionError",
    "ProtocolError",
    "AgentError",
    "NoTrustedAgentsError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """A configuration value is out of its documented domain."""


class SimulationError(ReproError):
    """The discrete-event engine was driven into an invalid state."""


class CryptoError(ReproError):
    """Base class for failures in the cryptographic substrate."""


class KeyMismatchError(CryptoError):
    """A ciphertext was presented to a key that cannot open it."""


class SignatureError(CryptoError):
    """A signature failed verification."""


class ReplayError(CryptoError):
    """A nonce was observed twice (replay attack detected)."""


class NetworkError(ReproError):
    """Base class for network-substrate failures."""


class UnknownNodeError(NetworkError, KeyError):
    """An operation referenced a node id that is not in the network."""


class OnionError(ReproError):
    """Base class for onion-routing failures."""


class OnionPeelError(OnionError):
    """An onion layer could not be peeled with the presented key."""


class StaleOnionError(OnionError):
    """An onion with a sequence number older than one already seen."""


class ProtocolError(ReproError):
    """A hiREP protocol message was malformed or arrived out of order."""


class WireError(ProtocolError):
    """A wire frame could not be encoded or decoded (bad tag, length, magic)."""


class AgentError(ReproError):
    """Base class for reputation-agent failures."""


class NoTrustedAgentsError(AgentError):
    """A peer needed trusted agents but its list (and backups) are empty."""
