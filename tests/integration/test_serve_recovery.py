"""Integration: the fleet's fault story — crashes recover, bad frames bounce.

The acceptance scenario for the service plane's fault story: kill an
agent actor with amnesia (blank in-memory state) while a load run is in
flight, and require that the supervisor, called by the crash, restores
the agent from its last checkpoint, restarts the actor on the same
inbox, and the load run completes with zero lost transactions.  Malformed
frames are the other half: the network edge drops and counts them, and no
actor ever restarts over one.
"""

import asyncio
import copy

import numpy as np

from repro.core.config import HiRepConfig
from repro.core.wire import WireSlice, _blob_field, encode
from repro.onion.onion import OnionLayer, build_onion
from repro.onion.routing import OnionPacket
from repro.serve import LoadGenerator, ServeSystem, build_trace
from repro.serve import supervisor as supervisor_module
from repro.serve.transport import Frame, _tcp_pack


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
            # The crash queued its restart on the loop: give it a turn.
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


def agent_state(agent):
    """Everything a restore rebuilds, as a deep copy."""
    return copy.deepcopy(
        (
            agent.report_log,
            list(agent._seen_report_nonces.items()),
            agent.public_key_list,
            agent.stats,
            vars(agent.model),
        )
    )


def test_restore_after_many_reports_is_the_last_checkpoint(monkeypatch):
    """A checkpoint records how long the report log and the nonce journal
    were, not their contents; restoring an agent that took more than 32
    reports, some after its last checkpoint and from a subject new since,
    still rebuilds exactly what that checkpoint saw."""
    at_checkpoint = {}
    checkpoint_of = supervisor_module._checkpoint_of

    def copying(agent):
        at_checkpoint[agent.ip] = agent_state(agent)
        return checkpoint_of(agent)

    monkeypatch.setattr(supervisor_module, "_checkpoint_of", copying)
    with ServeSystem(HiRepConfig(network_size=16, seed=13)) as system:
        supervisor = system.supervisor

        def grown_since_checkpoint():
            for ip, agent in system.agents.items():
                checkpoint = supervisor.checkpoints[ip]
                reports = len(agent._seen_report_nonces)
                if reports > 32 and reports > checkpoint.reports and len(
                    agent.report_log
                ) > checkpoint.subjects:
                    return ip
            return None

        victim = None
        for _ in range(80):
            system.run_transaction()
            victim = grown_since_checkpoint()
            if victim is not None:
                break
        assert victim is not None
        assert agent_state(system.agents[victim]) != at_checkpoint[victim]

        supervisor.kill(victim, amnesia=True)
        assert supervisor.restore_agent(victim)
        restored = system.agents[victim]
        assert agent_state(restored) == at_checkpoint[victim]
        assert type(restored._seen_report_nonces) is dict

        # The restored agent logs on (the supervisor restarts its actor), and
        # a later crash comes back to whichever checkpoint is the last then.
        for _ in range(10):
            system.run_transaction()
        assert supervisor.restarts == 1
        supervisor.kill(victim, amnesia=True)
        assert supervisor.restore_agent(victim)
        assert agent_state(system.agents[victim]) == at_checkpoint[victim]


def test_a_relay_layer_naming_no_node_is_dropped_not_a_crash():
    """A layer sealed to node 6 that names node 10 000: the relay cannot
    forward it, so it drops and counts it, and its actor stays up."""
    config = HiRepConfig(network_size=32, seed=21)
    with ServeSystem(config) as system:
        backend, relay, owner = system.backend, system.peers[6].keys, system.peers[9].keys
        inner = build_onion(backend, owner.ap, owner.sr, 9, [], seq=1).blob
        forged = backend.encrypt(relay.ap, OnionLayer(10_000, inner))
        packet = OnionPacket(forged, WireSlice(b"\x05\x00\x09\xff"), "trust_query", 0.0)
        packet.nbytes = _blob_field(forged) + 64  # a sealed message modelled at 64 bytes
        frame = encode(packet)
        dropped = system.router.dropped

        async def scenario():
            system.transport.post(
                Frame(src=0, dst=6, category="trust_query", sent_at=0.0, payload=frame)
            )
            assert await system.drain()  # a crash is counted as it happens

        assert system._loop is not None
        system._loop.run_until_complete(scenario())

        assert system.supervisor.crashes_detected == 0
        assert system.supervisor.restarts == 0
        assert system.router.dropped - dropped == 1
        assert system.network.frames_rejected == 0


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
            packet = OnionPacket(onion.blob, WireSlice(b"\x05\x00\x09\xff"), "trust_query", 0.0)
            packet.nbytes = _blob_field(onion.blob) + 64  # junk modelled at 64 bytes
            return encode(packet)

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


def test_a_frame_from_a_foreign_connection_leaves_the_fleet_quiescent():
    """A frame written to a TCP node port on a connection the transport did
    not open was never posted; it is in flight from the read until an
    actor pulls it, so the count never goes below zero and a drain ends."""
    with ServeSystem(HiRepConfig(network_size=16, seed=5), transport="tcp") as system:
        transport = system.transport

        async def scenario():
            _, writer = await asyncio.open_connection("127.0.0.1", transport.ports[3])
            writer.write(_tcp_pack(Frame(0, 3, "trust_query", 0.0, b"hR\x01junk")))
            await writer.drain()
            for _ in range(500):
                if system.network.frames_rejected:
                    break
                await asyncio.sleep(0.002)
            in_flight = transport.in_flight()
            quiescent = await system.drain()
            writer.close()
            await writer.wait_closed()
            return in_flight, quiescent

        assert system._loop is not None
        in_flight, quiescent = system._loop.run_until_complete(scenario())
        assert system.network.frames_rejected == 1  # junk payload, dropped at the edge
        assert in_flight >= 0 and transport.in_flight() == 0
        assert quiescent
        assert system.run_transaction().answered > 0  # and the fleet runs on
