"""Integration: the fleet's fault story — crashes recover, bad frames bounce.

The acceptance scenario for the service plane's fault story: kill an
agent actor with amnesia (blank in-memory state) while a load run is in
flight, and require that the monitor notices the crash, restores the
agent from its last checkpoint, restarts the actor on the same inbox,
and the load run completes with zero lost transactions.  Malformed
frames are the other half: the network edge drops and counts them, and no
actor ever restarts over one.
"""

import asyncio

import numpy as np

from repro.core.config import HiRepConfig
from repro.core.wire import WireSlice, encode
from repro.onion.onion import build_onion
from repro.onion.routing import OnionPacket
from repro.serve import LoadGenerator, ServeSystem, build_trace
from repro.serve.transport import Frame


def test_kill_and_restart_mid_load_loses_nothing():
    config = HiRepConfig(network_size=32, seed=77)
    with ServeSystem(config, checkpoint_every=8) as system:
        victim = sorted(system.supervisor.checkpoints)[0]
        trace = build_trace("pooled", 32, 40, np.random.default_rng(3))
        generator = LoadGenerator(system, trace, concurrency=4)

        async def scenario():
            async def killer():
                await asyncio.sleep(0.2)  # well inside the run
                system.supervisor.kill(victim, amnesia=True)

            kill_task = asyncio.get_running_loop().create_task(killer())
            report = await generator.run_async()
            await kill_task
            # Give the monitor a beat to finish the restart cycle.
            for _ in range(50):
                if system.supervisor.restarts >= 1:
                    break
                await asyncio.sleep(0.02)
            return report

        assert system._loop is not None
        report = system._loop.run_until_complete(scenario())

        supervisor = system.supervisor
        assert supervisor.crashes_detected >= 1
        assert supervisor.restarts >= 1
        assert [ip for ip, _ in supervisor.incidents] == [victim] * len(
            supervisor.incidents
        )
        assert report.lost == 0
        assert report.completed == 40

        # The restored agent is live again, with checkpointed state —
        # not the blank amnesiac installed by kill().
        actor = supervisor.actors[victim]
        assert actor.alive
        restored = system.agents[victim]
        assert len(restored.public_key_list) > 0
        checkpoint = supervisor.checkpoints[victim]
        assert set(restored.public_key_list) >= set(checkpoint.public_key_list)


def test_restore_agent_reinstates_checkpointed_state():
    config = HiRepConfig(network_size=16, seed=13)
    with ServeSystem(config) as system:
        for _ in range(4):
            system.run_transaction()
        victim = sorted(system.supervisor.checkpoints)[0]
        system.supervisor.checkpoint_agent(victim)
        before = system.agents[victim]
        keys_before = dict(before.public_key_list)
        reports_before = len(before.report_log)

        system.supervisor.kill(victim, amnesia=True)
        assert system.agents[victim].public_key_list == {}

        system.supervisor.restore_agent(victim)
        restored = system.agents[victim]
        assert restored is not before
        assert restored.public_key_list == keys_before
        assert len(restored.report_log) == reports_before
        # Agents share the two default models; a restart runs on its own
        # copy of one and leaves the shared instances with everyone else.
        assert restored.model is not before.model
        assert vars(restored.model) == vars(before.model)
        others = [a.model for ip, a in system.agents.items() if ip != victim]
        assert before.model in others and len({id(m) for m in others}) == 2

        # Dispatch resolves agents at call time, so the fleet keeps
        # routing to the restored instance without rewiring.
        assert system.wiring.agents[victim] is restored


def test_bad_frames_mid_load_are_rejected_not_crashes():
    config = HiRepConfig(network_size=32, seed=21)
    rng = np.random.default_rng(8)
    with ServeSystem(config) as system:
        trace = build_trace("pooled", 32, 40, np.random.default_rng(3))
        generator = LoadGenerator(system, trace, concurrency=4)

        def frame(dst, payload, src=0):
            return Frame(
                src=src, dst=dst, category="trust_query", sent_at=0.0, payload=payload
            )

        def sealed_junk(owner):
            """A well-formed packet to ``owner`` whose sealed message is junk:
            only the owner's unpack can tell."""
            keys = system.peers[owner].keys
            onion = build_onion(system.backend, keys.ap, keys.sr, owner, [], seq=1)
            junk = WireSlice(b"\x05\x00\x09\xff", size=64)
            return encode(OnionPacket(onion.blob, junk, "trust_query", 0.0))

        valid = sealed_junk(5)
        bad_frames = (
            [frame(int(rng.integers(32)), rng.bytes(int(rng.integers(1, 4096))))
             for _ in range(20)]
            + [frame(3, valid[: len(valid) // 2]), frame(4, valid[:7])]
            + [frame(6, sealed_junk(6), src=src) for src in (-1, 32, 10_000)]
            + [frame(owner, sealed_junk(owner)) for owner in (5, 9, 17)]
        )

        async def scenario():
            async def injector():
                for bad in bad_frames:
                    await asyncio.sleep(0.005)  # spread across the run
                    system.transport.post(bad)

            inject = asyncio.get_running_loop().create_task(injector())
            report = await generator.run_async()
            await inject
            assert await system.drain()
            return report

        assert system._loop is not None
        report = system._loop.run_until_complete(scenario())

        assert (report.completed, report.lost) == (40, 0)
        assert system.supervisor.crashes_detected == 0
        assert system.supervisor.restarts == 0
        assert all(actor.alive for actor in system.supervisor.actors.values())
        assert system.network.frames_rejected == len(bad_frames)
        metrics = system.telemetry.collect()
        assert metrics["serve.frames_rejected"] == len(bad_frames)
        assert metrics["serve.lost_transactions"] == 0
