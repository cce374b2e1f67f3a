"""The array kernel's network: the shared per-node store, no delivery.

:class:`ArrayNetwork` is :class:`~repro.net.substrate.Substrate` — the same
bandwidth vector, liveness mask, cached online index and vectorised churn
step the DES network is built on, constructed by the same code and hence
from the same RNG draws — plus the one thing only the array kernel needs:
a callback fired before the first node ever departs.

What it deliberately does *not* model:

* **Message delivery.**  The array kernel computes message counts and
  delivery outcomes in closed form from the liveness mask (intra-
  transaction liveness is static in both kernels, so hop accounting is
  pure arithmetic).  There is no event engine.
* **Fault planes.**  Installing one raises
  :class:`~repro.errors.ConfigError` — campaign cells surface this as a
  structured ``cell_error`` instead of silently mis-simulating.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import ConfigError
from repro.net.substrate import Substrate

__all__ = ["ArrayNetwork"]


class ArrayNetwork(Substrate):
    """The per-node store standing in for a full DES network."""

    #: Fired exactly once, immediately *before* the first node ever goes
    #: offline — the array kernel starts tracking per-row onion snapshots
    #: there, while they still provably equal current paths.
    on_first_offline: Callable[[], None] | None = None
    _had_offline = False

    def _departing(self, nodes: Iterable[int]) -> None:
        if self._had_offline:
            return
        self._had_offline = True
        if self.on_first_offline is not None:
            self.on_first_offline()

    # -- unsupported surfaces ------------------------------------------------

    @property
    def faults(self) -> None:
        return None

    @faults.setter
    def faults(self, plane: object) -> None:
        if plane is not None:
            raise ConfigError(
                "the array kernel (hirep-array) does not support fault planes; "
                "build the object kernel ('hirep') for fault-injection runs"
            )
