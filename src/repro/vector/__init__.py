"""The array kernel: hiREP on struct-of-arrays state (100k–1M peers).

``repro.vector`` is the second execution backend behind the
:class:`~repro.core.interface.ReputationSystem` interface, registered as
``hirep-array``.  Where the object kernel (``repro.core``) keeps one
Python object per peer, trust row and protocol message, this kernel keeps
every piece of per-peer state in flat numpy arrays
(:class:`~repro.vector.state.VectorTrustState`) and replaces the
discrete-event message exchange with closed-form hop accounting over the
liveness mask every network shares (:class:`~repro.vector.network.
ArrayNetwork` is :class:`~repro.net.substrate.Substrate` without delivery).

Both kernels execute the *same* protocol semantics — the shared update
rules live in :mod:`repro.core.semantics` — and the array kernel mirrors
the object kernel's RNG stream discipline draw for draw, so
churn-free runs agree outcome-for-outcome (see
``tests/integration/test_kernel_parity.py`` and ``docs/scaling.md``).
"""

from repro.vector.network import ArrayNetwork
from repro.vector.state import VectorTrustState
from repro.vector.system import ArrayHiRepSystem

__all__ = ["ArrayHiRepSystem", "ArrayNetwork", "VectorTrustState"]
