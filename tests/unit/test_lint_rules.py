"""Each bundled hirep-lint rule against planted-violation fixtures.

Every rule gets: a snippet that must trigger it, a snippet that must not,
and a pragma'd snippet that must be suppressed.  Multi-module fixtures
(the whole-program LAY001 among them) live in ``test_analyze_rules.py``.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools.lint import lint_source


def codes(
    source: str, module: str | None = "repro.sim.fake", path: str = "fake.py"
) -> list[str]:
    result = lint_source(textwrap.dedent(source), module=module, path=path)
    assert not result.errors, result.errors
    return [f.rule for f in result.findings]


# ---------------------------------------------------------------- DET001


def test_det001_flags_stdlib_random_import():
    assert codes("import random\n") == ["DET001"]
    assert codes("from random import choice\n") == ["DET001"]


def test_det001_flags_global_numpy_rng():
    assert "DET001" in codes("import numpy as np\nx = np.random.rand(3)\n")
    assert "DET001" in codes("import numpy as np\nnp.random.seed(7)\n")
    assert "DET001" in codes("from numpy.random import rand\n")


def test_det001_flags_unseeded_default_rng():
    assert "DET001" in codes("import numpy as np\nrng = np.random.default_rng()\n")
    assert "DET001" in codes("from numpy.random import default_rng\nrng = default_rng()\n")


def test_det001_bit_generator_needs_a_seed():
    seeded = "import numpy as np\nrng = np.random.Generator(np.random.PCG64(seq))\n"
    assert codes(seeded) == []
    assert codes("from numpy.random import PCG64\nbits = PCG64(seed=7)\n") == []
    assert codes("import numpy as np\nbits = np.random.PCG64()\n") == ["DET001"]
    assert codes("from numpy.random import Philox\nbits = Philox()\n") == ["DET001"]


def test_det001_allows_injected_generator_idiom():
    clean = """
        import numpy as np

        def draw(rng: np.random.Generator) -> float:
            return float(rng.random())

        rng = np.random.default_rng(42)
    """
    assert codes(clean) == []


def test_det001_scoped_to_repro_package():
    assert codes("import random\n", module="scripts.tool") == []
    assert codes("import random\n", module=None) == []


def test_det001_pragma_suppresses():
    assert codes("import random  # lint: allow[DET001]\n") == []


def test_det001_flags_entropy_reads():
    assert codes("import os\nsalt = os.urandom(8)\n") == ["DET001"]
    assert codes("import uuid\ntag = uuid.uuid1()\n") == ["DET001"]
    assert codes("import secrets\n") == ["DET001"]
    assert codes("from secrets import token_hex\n") == ["DET001"]
    # the import and the call of the name it bound, aliases included
    src = "from os import urandom as entropy\nsalt = entropy(8)\n"
    assert codes(src) == ["DET001", "DET001"]
    assert codes("import uuid as u\ntag = u.uuid4()\n") == ["DET001"]


def test_det001_allows_deterministic_os_and_uuid_use():
    clean = """
        import os
        import uuid

        def tag(path: str, seed: bytes) -> uuid.UUID:
            return uuid.uuid5(uuid.NAMESPACE_URL, os.path.basename(path))
    """
    assert codes(clean) == []


#: packages no determinism scope list used to name (the array kernel, the
#: baselines, the workload/attack builders, onion/crypto, the live plane).
_ONCE_UNCOVERED = (
    "vector",
    "baselines",
    "workloads",
    "attacks",
    "onion",
    "crypto",
    "serve",
)


@pytest.mark.parametrize("package", _ONCE_UNCOVERED)
@pytest.mark.parametrize(
    "imported, read, code",
    [
        pytest.param("time", "time.time()", "DET002", id="clock"),
        pytest.param("os", "os.urandom(8)", "DET001", id="urandom"),
        pytest.param("uuid", "uuid.uuid4()", "DET001", id="uuid4"),
    ],
)
def test_det_rules_cover_every_repro_package(package, imported, read, code):
    src = f"import {imported}\n\ndef draw():\n    return {read}\n"
    assert codes(src, module=f"repro.{package}.fake") == [code]


# ---------------------------------------------------------------- DET002


def test_det002_flags_wall_clock_reads():
    assert "DET002" in codes("import time\nt = time.time()\n")
    assert "DET002" in codes("import time\nt = time.perf_counter()\n")
    assert "DET002" in codes(
        "import datetime\nnow = datetime.datetime.now()\n"
    )


@pytest.mark.parametrize(
    "read", ["strftime('%Y')", "localtime()", "gmtime()", "ctime()", "asctime()"]
)
def test_det002_flags_calendar_reads_of_the_clock(read):
    # with no time argument these format or split the current wall time
    assert codes(f"import time\nstamp = time.{read}\n") == ["DET002"]
    name = read.split("(")[0]
    assert codes(f"from time import {name}\nstamp = {read}\n") == ["DET002", "DET002"]


def test_det002_pragma_marks_a_calendar_stamp():
    src = "import time\nstamp = time.strftime('%Y%m%d')  # lint: allow[DET002]\n"
    assert codes(src) == []


def test_det002_flags_clock_imports_and_bare_calls():
    found = codes("from time import perf_counter\nt = perf_counter()\n")
    assert found.count("DET002") == 2  # the import and the call


def test_det002_scoped_to_repro_package():
    assert codes("import time\nt = time.time()\n", module="scripts.tool") == []
    assert codes("import time\nt = time.time()\n", module=None) == []


def test_det002_sees_through_import_aliases():
    assert codes("import time as t\nnow = t.monotonic()\n") == ["DET002"]
    src = "from time import time as wall\nnow = wall()\n"
    assert codes(src) == ["DET002", "DET002"]  # the import and the call


def test_det002_wallclock_is_the_sanctioned_clock_for_the_live_plane():
    src = """
        from repro.obs.clock import WallClock

        async def pump() -> float:
            return WallClock().now
    """
    assert codes(src, module="repro.serve.fake") == []


def test_det002_clean_simulated_time():
    assert codes("def step(clock):\n    return clock.now\n") == []


def test_det002_pragma_marks_telemetry_site():
    # a deliberate raw-clock site needs both pragmas now: DET002 (wall
    # clock in sim paths) and OBS002 (perf timing outside repro.obs)
    src = "import time\nstart = time.perf_counter()  # lint: allow[DET002, OBS002]\n"
    assert codes(src) == []
    only_det = "import time\nstart = time.perf_counter()  # lint: allow[DET002]\n"
    assert codes(only_det) == ["OBS002"]


# ---------------------------------------------------------------- DET003


def test_det003_flags_unsorted_json_dumps():
    assert "DET003" in codes("import json\ns = json.dumps({'b': 1})\n")
    assert "DET003" in codes(
        "import json\njson.dump({'b': 1}, fh)\n"
    )
    assert "DET003" in codes(
        "import json\ns = json.dumps(d, sort_keys=False)\n"
    )


def test_det003_allows_sorted_and_opaque_kwargs():
    assert codes("import json\ns = json.dumps(d, sort_keys=True)\n") == []
    assert codes("import json\ns = json.dumps(d, **kw)\n") == []


def test_det003_pragma_suppresses():
    assert codes("import json\ns = json.dumps(d)  # lint: allow[DET003]\n") == []


# ---------------------------------------------------------------- EXC001


def test_exc001_flags_lambda_assemble():
    src = """
        from repro.exec.sweeps import SweepPlan
        plan = SweepPlan(specs=specs, assemble=lambda vs: vs[0])
    """
    assert "EXC001" in codes(src, module="repro.experiments.fake")


def test_exc001_flags_lambda_and_closure_submit():
    assert "EXC001" in codes("fut = pool.submit(lambda: 1)\n")
    src = """
        def outer(pool):
            def inner():
                return 1
            return pool.submit(inner)
    """
    assert "EXC001" in codes(src)


def test_exc001_allows_module_level_and_partial():
    src = """
        from functools import partial

        def fold(values, seeds):
            return values

        plan = SweepPlan(specs=specs, assemble=partial(fold, seeds=[1, 2]))
        fut = pool.submit(fold, 3)
    """
    assert codes(src) == []


def test_exc001_flags_lambda_inside_partial():
    src = "from functools import partial\nf = pool.submit(partial(lambda x: x, 1))\n"
    assert "EXC001" in codes(src)


def test_exc001_flags_lambda_captured_in_partial():
    src = """
        from functools import partial

        def work(key):
            return key(1)

        def go(pool):
            pool.submit(partial(work, key=lambda x: x))
            pool.map(partial(work, lambda x: x), [1])
    """
    result = lint_source(textwrap.dedent(src), module="repro.sim.fake", path="fake.py")
    assert [(f.rule, f.line) for f in result.findings] == [("EXC001", 8), ("EXC001", 9)]
    assert "captured in a functools.partial argument" in result.findings[0].message


def test_exc001_pragma_suppresses():
    src = "fut = pool.submit(lambda: 1)  # lint: allow[EXC001]\n"
    assert codes(src) == []


def test_cmp001_pragma_suppresses():
    # Campaign factories were once checked by their own rule, CMP001;
    # they are now an EXC001 sink and take the EXC001 pragma.
    src = "register_campaign(lambda: build())  # lint: allow[EXC001]\n"
    assert codes(src, module="repro.campaigns.extra") == []


def test_exc001_flags_lambda_campaign_factory():
    src = """
        from repro.campaigns.catalogue import register_campaign
        register_campaign(lambda: build())
    """
    assert "EXC001" in codes(src, module="repro.campaigns.extra")


def test_exc001_flags_closure_campaign_factory():
    src = """
        from repro.campaigns.catalogue import register_campaign

        def setup():
            def factory():
                return build()
            register_campaign(factory)
    """
    assert "EXC001" in codes(src, module="repro.campaigns.extra")


def test_exc001_allows_module_level_campaign_factory():
    src = """
        from functools import partial
        from repro.campaigns import catalogue
        from repro.campaigns.catalogue import register_campaign

        def factory():
            return build()

        def sized(cells):
            return build(cells)

        register_campaign(factory)
        catalogue.register_campaign(partial(sized, cells=4))
    """
    assert codes(src, module="repro.campaigns.extra") == []


def test_exc001_flags_lambda_inside_partial_campaign_factory():
    src = """
        from functools import partial
        from repro.campaigns import catalogue
        catalogue.register_campaign(partial(lambda: build()))
    """
    assert "EXC001" in codes(src, module="repro.campaigns.extra")


# ---------------------------------------------------------------- API001


def test_api001_flags_missing_annotations():
    assert codes("def run(seed):\n    return seed\n", module="repro.exec.fake") == [
        "API001"
    ]
    assert codes(
        "def run(seed: int):\n    return seed\n", module="repro.core.fake"
    ) == ["API001"]


def test_api001_checks_methods_but_skips_self_and_private():
    src = """
        class Scheduler:
            def run(self, jobs: list) -> list:
                return jobs

            def _poll(self, x):
                return x
    """
    assert codes(src, module="repro.exec.fake") == []
    flagged = """
        class Scheduler:
            def run(self, jobs) -> list:
                return jobs
    """
    assert codes(flagged, module="repro.exec.fake") == ["API001"]


def test_api001_scoped_to_core_and_exec():
    assert codes("def run(seed):\n    return seed\n", module="repro.sim.fake") == []
    assert codes("def run(seed):\n    return seed\n", module="repro.net.fake") == []


def test_api001_fully_annotated_is_clean():
    src = """
        def run(seed: int, *args: int, verbose: bool = False, **kw: object) -> dict:
            return {}
    """
    assert codes(src, module="repro.exec.fake") == []


def test_api001_pragma_on_def_line():
    src = "def run(seed):  # lint: allow[API001]\n    return seed\n"
    assert codes(src, module="repro.exec.fake") == []


# ---------------------------------------------------------------- ARC001


def test_arc001_flags_direct_construction_in_experiments():
    src = """
        from repro.core.system import HiRepSystem
        system = HiRepSystem(cfg)
    """
    assert codes(src, module="repro.experiments.fake") == ["ARC001"]


def test_arc001_flags_attribute_calls_and_every_system_class():
    src = """
        import repro
        a = repro.core.system.HiRepSystem(cfg)
        b = PureVotingSystem(cfg)
        c = GossipSystem(cfg, latency_model=model)
    """
    assert codes(src, module="repro.experiments.fake") == ["ARC001"] * 3


def test_arc001_flags_examples_scripts_by_path():
    src = "system = HiRepSystem(cfg)\n"
    assert codes(src, module=None, path="examples/quickstart.py") == ["ARC001"]
    # the engine gives packageless scripts their bare stem as module
    assert codes(src, module="quickstart", path="examples/quickstart.py") == [
        "ARC001"
    ]


def test_arc001_registry_construction_is_clean():
    src = """
        from repro import build_system
        system = build_system("hirep", cfg, churn=model)
        baseline = build_system("voting", cfg)
    """
    assert codes(src, module="repro.experiments.fake") == []


def test_arc001_scope_exempts_kernel_tests_and_other_scripts():
    src = "system = HiRepSystem(cfg)\n"
    assert codes(src, module="repro.core.registry") == []
    assert codes(src, module="repro.baselines.voting") == []
    assert codes(src, module="tests.integration.test_kernel_equivalence") == []
    assert codes(src, module=None, path="scripts/tool.py") == []


def test_arc001_pragma_suppresses():
    src = "system = HiRepSystem(cfg)  # lint: allow[ARC001]\n"
    assert codes(src, module="repro.experiments.fake") == []


# ---------------------------------------------------------------- OBS001


def test_obs001_flags_print_in_library_code():
    # annotated so API001 (repro.core/exec scope) stays quiet
    src = "def handle(msg: str) -> None:\n    print('delivered', msg)\n"
    for module in (
        "repro.sim.engine",
        "repro.net.network",
        "repro.core.peer",
        "repro.exec.scheduler",
        "repro.obs.plane",
    ):
        assert codes(src, module=module) == ["OBS001"], module


def test_obs001_exempts_terminal_facing_modules():
    src = "print('72% done')\n"
    assert codes(src, module="repro.exec.progress") == []
    assert codes(src, module="repro.obs.cli") == []
    # experiments and examples are user-facing output; out of scope
    assert codes(src, module="repro.experiments.runner") == []
    assert codes(src, module=None) == []


def test_obs001_ignores_shadowed_and_attribute_prints():
    src = "def run(printer):\n    printer.print('x')\n"
    assert codes(src, module="repro.sim.fake") == []


def test_obs001_pragma_suppresses():
    src = "print('banner')  # lint: allow[OBS001]\n"
    assert codes(src, module="repro.core.fake") == []


# ---------------------------------------------------------------- OBS002


def test_obs002_flags_raw_perf_counter():
    src = "import time\nt0 = time.perf_counter()\n"
    # DET002 (wall clock in sim paths) also fires inside repro packages;
    # OBS002 is the one that additionally covers benchmarks (module=None)
    assert "OBS002" in codes(src, module="repro.core.fake")
    assert "OBS002" in codes(src, module=None, path="benchmarks/test_bench_x.py")
    assert "OBS002" in codes("import time\nt = time.perf_counter_ns()\n", module=None)


def test_obs002_flags_perf_counter_from_import():
    src = "from time import perf_counter\nt0 = perf_counter()\n"
    fired = codes(src, module=None, path="benchmarks/test_bench_x.py")
    # once for the import, once for the call
    assert fired.count("OBS002") == 2


def test_obs002_flags_tracemalloc():
    assert "OBS002" in codes("import tracemalloc\n", module="repro.exec.fake")
    assert "OBS002" in codes("from tracemalloc import start\n", module=None)


def test_obs002_exempts_sanctioned_clock_homes():
    src = "import time\nt0 = time.perf_counter()  # lint: allow[DET002]\n"
    assert codes(src, module="repro.obs.clock") == []
    assert codes(src, module="repro.obs.prof") == []


def test_obs002_allows_wallclock_usage():
    src = (
        "from repro.obs.clock import WallClock\n"
        "clock = WallClock()\n"
        "elapsed_ms = clock.now\n"
    )
    assert codes(src, module=None, path="benchmarks/test_bench_x.py") == []


def test_obs002_ignores_shadowed_attribute():
    # a local object that happens to have a .perf_counter attribute
    src = "def f(timer: object) -> object:\n    return timer.recorder.perf_counter\n"
    assert codes(src, module="repro.core.fake") == []


def test_obs002_pragma_suppresses():
    src = "import time\nt = time.perf_counter()  # lint: allow[OBS002, DET002]\n"
    assert codes(src, module="repro.core.fake") == []


# ---------------------------------------------------------------- pragmas


def test_star_pragma_allows_every_rule():
    src = "import random  # lint: allow[*]\n"
    assert codes(src) == []


def test_pragma_with_multiple_codes():
    # sanity: both rules fire without pragmas
    fired = codes("import random\nimport time\nt = time.time()\n")
    assert set(fired) == {"DET001", "DET002"}
    suppressed = codes(
        "t = __import__('time').time()  # placeholder\n"
        "import random  # lint: allow[DET001, DET002]\n"
    )
    assert "DET001" not in suppressed


# ---------------------------------------------------------------- SRV001


def test_srv001_flags_time_sleep_in_coroutine():
    src = """
        import time

        async def pump():
            time.sleep(0.1)
    """
    assert codes(src, module="repro.serve.fake") == ["SRV001"]


def test_srv001_flags_sync_sockets_and_subprocess():
    src = """
        import socket
        import subprocess

        async def dial():
            sock = socket.create_connection(("127.0.0.1", 80))
            subprocess.run(["true"])
    """
    assert codes(src, module="repro.serve.fake") == ["SRV001", "SRV001"]


def test_srv001_allows_asyncio_sleep_and_sync_defs():
    src = """
        import asyncio
        import time

        async def pump():
            await asyncio.sleep(0.1)

        def measure():
            time.sleep(0.1)
    """
    assert codes(src, module="repro.serve.fake") == []


def test_srv001_ignores_sync_def_nested_in_coroutine():
    src = """
        import time

        async def pump():
            def blocking_callback():
                time.sleep(0.1)
            return blocking_callback
    """
    assert codes(src, module="repro.serve.fake") == []


def test_srv001_flags_nested_coroutine_body():
    src = """
        import time

        async def outer():
            async def inner():
                time.sleep(0.1)
            await inner()
    """
    assert codes(src, module="repro.serve.fake") == ["SRV001"]


def test_srv001_scoped_to_serve_package():
    src = """
        import time

        async def pump():
            time.sleep(0.1)
    """
    assert "SRV001" not in codes(src, module="repro.exec.fake")


def test_srv001_pragma_suppresses():
    src = """
        import time

        async def pump():
            time.sleep(0.1)  # lint: allow[SRV001]
    """
    assert codes(src, module="repro.serve.fake") == []


def test_srv001_flags_run_until_complete_in_coroutine():
    src = """
        async def pump(loop, coro):
            return loop.run_until_complete(coro)
    """
    assert codes(src, module="repro.serve.fake") == ["SRV001"]
    src_self = """
        async def pump(self, coro):
            return self._loop.run_until_complete(coro)
    """
    assert codes(src_self, module="repro.serve.fake") == ["SRV001"]


def test_srv001_allows_run_until_complete_in_sync_def():
    src = """
        def up(loop, coro):
            return loop.run_until_complete(coro)
    """
    assert codes(src, module="repro.serve.fake") == []


def test_srv001_flags_bare_socket_reads_in_coroutine():
    src = """
        async def pump(sock, conn):
            data = sock.recv(4096)
            conn.sendall(data)
    """
    assert codes(src, module="repro.serve.fake") == ["SRV001", "SRV001"]


def test_srv001_allows_awaited_stream_reads():
    src = """
        async def pump(reader):
            return await reader.read(4096)
    """
    assert codes(src, module="repro.serve.fake") == []


def test_srv001_flags_os_system_and_bare_open_in_coroutine():
    src = """
        import os

        async def pump(path):
            os.system("sync")
            return open(path)
    """
    assert codes(src, module="repro.serve.fake") == ["SRV001", "SRV001"]


def test_srv001_resolves_from_imports_and_exempts_awaited_calls():
    src = """
        import asyncio
        from time import sleep

        async def pump(path):
            sleep(0.1)
            return await asyncio.to_thread(open, path)
    """
    assert codes(src, module="repro.serve.fake") == ["SRV001"]


def test_srv001_flags_non_awaited_read_in_coroutine():
    src = """
        async def pump(reader):
            return reader.read(4096)
    """
    assert codes(src, module="repro.serve.fake") == ["SRV001"]
