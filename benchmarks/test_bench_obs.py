"""Telemetry-plane benchmarks: attached cost, and the disabled-cost guard.

The observability contract is "zero-cost when disabled": a system with no
plane attached must run the exact pre-telemetry code path.  The guard
test times identical simulations with and without an attached plane and
asserts the *untraced* runs sit within noise of the historical untraced
baseline — implemented as a ratio check against a fresh untraced run so
the assertion holds on any machine.  Both kernels reach the plane through
the same seam (``TransactionRuntime.begin`` / ``finish``), so the guard
runs on both.
"""

from __future__ import annotations

import pytest

from repro import build_system
from repro.core.config import HiRepConfig
from repro.obs.clock import WallClock
from repro.obs.plane import TelemetryPlane

_CFG = dict(network_size=100, seed=11)
#: backend -> transactions per timed run (the array kernel is ~30x faster
#: per transaction; its run is lengthened so the timer sees milliseconds).
_TXNS = {"hirep": 10, "hirep-array": 200}


def _build(backend: str = "hirep"):
    system = build_system(backend, HiRepConfig(**_CFG))
    system.bootstrap()
    return system


def _run(backend: str, attach: bool) -> float:
    system = _build(backend)
    if attach:
        TelemetryPlane().attach(system)
    clock = WallClock()
    system.run(_TXNS[backend])
    return clock.now / 1000.0


def test_bench_transaction_untraced(benchmark):
    def untraced():
        system = _build()
        system.run(_TXNS["hirep"])
        return system.transactions_run

    assert benchmark(untraced) == _TXNS["hirep"]


def test_bench_transaction_traced(benchmark):
    def traced():
        system = _build()
        plane = TelemetryPlane().attach(system)
        system.run(_TXNS["hirep"])
        return len(plane.spans)

    assert benchmark(traced) > 0


@pytest.mark.parametrize("backend", list(_TXNS))
def test_disabled_overhead_is_noise(backend, perf):
    """Runs without a plane attached pay nothing for telemetry existing.

    Times a batch of untraced runs before telemetry is ever used in the
    process, then fully exercises the plane (attach + traced run), then
    times a second untraced batch.  The two medians must agree within
    noise: attach() must leave no global residue (lingering observers,
    dispatcher taps, capture state) that would tax later untraced runs,
    and the instrumentation seams themselves (observer list checks, the
    registry build hook, the runtime's two ``is None`` tests) must stay
    O(1) no-ops.
    """
    # warm up imports/allocator caches off the clock
    _run(backend, attach=False)
    before = sorted(_run(backend, attach=False) for _ in range(5))
    _run(backend, attach=True)  # exercise the full telemetry machinery once
    after = sorted(_run(backend, attach=False) for _ in range(5))
    median_before, median_after = before[2], after[2]
    ratio = max(median_before, median_after) / min(median_before, median_after)
    perf.record(
        "obs-overhead",
        {"untraced_run_s": median_after, "disabled_overhead_ratio": ratio},
        backend=backend,
        network_size=_CFG["network_size"],
        transactions=_TXNS[backend],
    )
    assert ratio < 1.5, (
        f"untraced runs disagree by {ratio:.2f}x after telemetry use — "
        "the telemetry-disabled path is no longer zero-cost"
    )
