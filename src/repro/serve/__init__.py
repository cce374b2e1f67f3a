"""repro.serve — the live service plane.

The simulator proves the protocol's *math*; this package proves it
*serves*.  Peers and trusted agents become asyncio actors exchanging the
exact ``repro.core.messages`` protocol objects — serialized through the
real codec in :mod:`repro.core.wire` — over pluggable transports (an
in-process asyncio-queue fabric, or TCP loopback sockets).  A
:class:`~repro.serve.supervisor.Supervisor` brings the fleet up from a
registry-built system config and, called by an actor's failure,
restarts that actor from state checkpoints; a
:class:`~repro.serve.load.LoadGenerator` replays workload traces at
configurable concurrency and arrival rate while the
:mod:`repro.obs` plane captures wall-clock latency and message-cost
telemetry.  The ``hirep-serve`` CLI fronts all of it.

Because the served stack reuses the whole protocol kernel (peers,
agents, onion router, dispatcher) unchanged — only the network edge and
the clock (a :class:`~repro.obs.clock.WallClock`) differ — a serialized
in-process run reproduces the simulator's transaction outcomes for the
same seed.  See ``docs/serving.md``.
"""

from __future__ import annotations

from repro.serve.load import LoadGenerator, LoadReport, build_trace
from repro.serve.network import ServeNetwork
from repro.serve.supervisor import Supervisor
from repro.serve.system import ServeSystem
from repro.serve.transport import (
    Frame,
    InProcessTransport,
    TcpLoopbackTransport,
    Transport,
    make_transport,
)

__all__ = [
    "Frame",
    "InProcessTransport",
    "LoadGenerator",
    "LoadReport",
    "ServeNetwork",
    "ServeSystem",
    "Supervisor",
    "TcpLoopbackTransport",
    "Transport",
    "build_trace",
    "make_transport",
]
