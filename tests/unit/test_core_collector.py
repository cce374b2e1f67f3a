"""Set-up runs with the cyclic collector paused, and restores it after.

`SystemRegistry.build` and `HiRepRuntime.bootstrap` allocate every
long-lived object of a run; both pause the collector through
:func:`repro.core.collector.collector_paused`.  These tests pin that the
pause is in force while they run, that they leave ``gc.isenabled()`` as
they found it (also when they raise), that what a pause allocated reaches
the oldest generation, that a build runs the full collection those
handed-over objects make due and so still frees the cycles of systems
built before it, and the premise the pause rests on: building and
bootstrapping a system creates no garbage cycles.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import build_system
from repro.core import collector as collector_module
from repro.core.collector import collector_paused
from repro.core.registry import SystemRegistry
from repro.core.runtime import HiRepRuntime
from repro.workloads.scenarios import default_config

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector state a test starts from; restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class _Bootstrapped(HiRepRuntime):
    """Just the once-only bootstrap guard around a recording step."""

    def __init__(self, fail: bool = False) -> None:
        self.fail = fail
        self.seen: list[bool] = []

    def _bootstrap(self, rounds: int) -> None:
        self.seen.append(gc.isenabled())
        if self.fail:
            raise RuntimeError("bootstrap failed")


def test_collector_paused_nests_and_restores(collector):
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() is collector


def test_pause_hands_its_objects_to_the_oldest_generation(monkeypatch):
    monkeypatch.setattr(collector_module, "_handed", 0)
    with collector_paused():
        made = [[] for _ in range(1000)]
    assert any(obj is made for obj in gc.get_objects(generation=2))
    assert gc.get_count()[0] < 1000
    assert collector_module._handed >= 1001


def test_pause_leaves_the_callers_frozen_objects_frozen():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        with collector_paused():
            pass
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def _full_collections():
    return gc.get_stats()[2]["collections"]


def test_build_collects_once_a_quarter_of_the_survivors_was_handed_over(monkeypatch):
    monkeypatch.setattr(collector_module, "_survivors", 4000)
    monkeypatch.setattr(collector_module, "_handed", 1000)
    before = _full_collections()
    kept = [build_system("hirep", default_config(40, seed=3))]
    assert _full_collections() == before
    monkeypatch.setattr(collector_module, "_handed", 1001)
    kept.append(build_system("hirep", default_config(40, seed=4)))
    assert _full_collections() == before + 1
    assert collector_module._survivors > 0
    assert 0 < collector_module._handed < collector_module._survivors // 4


def test_build_frees_the_cycles_of_an_earlier_system(monkeypatch):
    """The pause sends a system to the oldest generation, so only a full
    collection frees its cycles; ``build`` runs the one that is due."""

    def discarded_system(seed):
        system = build_system("hirep", default_config(40, seed=seed))
        system.bootstrap()

    gc.collect()
    discarded_system(3)
    assert gc.collect() > 0  # a dropped system leaves cycles behind
    discarded_system(3)
    monkeypatch.setattr(collector_module, "_survivors", 0)
    kept = build_system("hirep", default_config(40, seed=4))
    assert gc.collect() == 0
    assert kept.config.network_size == 40


def test_build_pauses_and_restores(collector):
    seen = []

    def builder(config):
        seen.append(gc.isenabled())
        return config

    registry = SystemRegistry()
    registry.register("probe", builder)
    assert registry.build("probe", "cfg") == "cfg"
    assert seen == [False]
    assert gc.isenabled() is collector


def test_build_restores_when_the_builder_raises(collector):
    def builder(config):
        raise RuntimeError("builder failed")

    registry = SystemRegistry()
    registry.register("broken", builder)
    with pytest.raises(RuntimeError, match="builder failed"):
        registry.build("broken")
    assert gc.isenabled() is collector


def test_bootstrap_pauses_and_restores(collector):
    system = _Bootstrapped()
    system.bootstrap()
    system.bootstrap()
    assert system.seen == [False]
    assert gc.isenabled() is collector


def test_bootstrap_restores_when_it_raises(collector):
    system = _Bootstrapped(fail=True)
    with pytest.raises(RuntimeError, match="bootstrap failed"):
        system.bootstrap()
    assert not system._bootstrapped
    assert gc.isenabled() is collector


_NO_CYCLES_SCRIPT = """
import gc, sys
from repro import build_system
from repro.workloads.scenarios import default_config

name, *mode = sys.argv[1:]
opts = {"bootstrap_mode": mode[0]} if mode else {}
config = default_config(200, seed=7)
gc.collect()
system = build_system(name, config, **opts)
system.bootstrap()
print(gc.collect())
"""


@pytest.mark.parametrize(
    "args",
    [("hirep",), ("hirep-array", "protocol"), ("hirep-array", "seeded")],
    ids=lambda args: "-".join(args),
)
def test_build_and_bootstrap_leave_no_cycles(args):
    """What the pause skips: a full collection right after set-up finds no
    unreachable object, so collecting during it could free nothing."""
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    result = subprocess.run(
        [sys.executable, "-c", _NO_CYCLES_SCRIPT, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == ["0"]
