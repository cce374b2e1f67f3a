"""hirep-serve: bring up, load and benchmark a live fleet.

Subcommands
-----------
``up``
    Build a fleet from the system registry, start every actor, print the
    bring-up summary, and shut down — the smoke test for a config.
``load``
    Replay a workload trace at a chosen concurrency/arrival rate and
    print the SLO report; ``--telemetry`` stores the full telemetry
    bundle with the SLO summary in its ``meta.json``, which
    ``hirep-obs summarize`` renders back.  ``--profile`` attaches a
    sampling :class:`~repro.obs.prof.Profiler` to the fleet's telemetry
    plane (``--profile mem`` adds tracemalloc watermarks); with
    ``--telemetry`` the bundle gains ``profile.json`` for
    ``hirep-obs flame``.  Exits non-zero when any transaction is lost.
``bench``
    Run the same trace at several concurrency levels (fresh fleet each)
    and print a throughput table.
"""

from __future__ import annotations

import argparse
from typing import Any, Sequence, cast

import numpy as np

from repro.core.config import HiRepConfig
from repro.core.registry import build_system
from repro.obs.bundle import store_bundle
from repro.obs.prof import Profiler
from repro.obs.slo import render_slo
from repro.serve.load import WORKLOAD_NAMES, LoadGenerator, LoadReport, build_trace
from repro.serve.report import slo_summary
from repro.serve.transport import TRANSPORT_NAMES

__all__ = ["main"]


def _add_fleet_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--peers", type=int, default=64, help="fleet size")
    parser.add_argument("--seed", type=int, default=2006, help="world seed")
    parser.add_argument(
        "--transport",
        choices=TRANSPORT_NAMES,
        default="inproc",
        help="frame fabric between actors",
    )
    parser.add_argument(
        "--relays", type=int, default=None, help="onion relays per circuit"
    )
    parser.add_argument(
        "--agents-queried", type=int, default=None, help="agents asked per query"
    )
    parser.add_argument(
        "--trusted-agents", type=int, default=None, help="trusted-agent list capacity"
    )


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--transactions", type=int, default=500, help="trace length"
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOAD_NAMES,
        default="pooled",
        help="trace generator",
    )
    parser.add_argument(
        "--requestor", type=int, default=0, help="requestor for --workload fixed"
    )
    parser.add_argument(
        "--pool-size", type=int, default=10, help="pool for --workload pooled"
    )


def _config_from(args: argparse.Namespace) -> HiRepConfig:
    overrides: dict[str, Any] = {
        "network_size": args.peers,
        "seed": args.seed,
    }
    if args.relays is not None:
        overrides["onion_relays"] = args.relays
    if args.agents_queried is not None:
        overrides["agents_queried"] = args.agents_queried
    if args.trusted_agents is not None:
        overrides["trusted_agents"] = args.trusted_agents
    return HiRepConfig(**overrides)


def _build_fleet(args: argparse.Namespace) -> Any:
    return build_system("serve", _config_from(args), transport=args.transport)


def _run_load(system: Any, args: argparse.Namespace) -> LoadReport:
    trace = build_trace(
        args.workload,
        args.peers,
        args.transactions,
        np.random.default_rng(args.seed + 1),
        requestor=args.requestor,
        pool_size=args.pool_size,
    )
    generator = LoadGenerator(
        system,
        trace,
        concurrency=args.concurrency,
        arrival_rate_tps=args.rate,
    )
    return generator.run()


def _cmd_up(args: argparse.Namespace) -> int:
    system = _build_fleet(args)
    with system:
        transport = system.transport
        print(
            f"fleet up: {system.network.n} peers, {len(system.agents)} agents, "
            f"transport={transport.name}, "
            f"actors={sum(1 for a in system.supervisor.actors.values() if a.alive)}"
        )
        if transport.name == "tcp":
            ports = sorted(transport.ports.values())
            print(f"tcp loopback ports: {ports[0]}..{ports[-1]} ({len(ports)} sockets)")
    print("fleet down")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    system = _build_fleet(args)
    profiler = None
    if args.profile:
        profiler = system.telemetry.set_profiler(Profiler(memory=args.profile == "mem"))
    with system:
        if profiler is not None:
            profiler.start()
        try:
            report = _run_load(system, args)
        finally:
            if profiler is not None:
                profiler.stop()
        summary = slo_summary(system, report)
        print(render_slo(summary))
        if profiler is not None:
            for label, ms in list(profiler.self_times().items())[:5]:
                print(f"self {ms:8.1f}ms  {label}")
        for error in report.errors:
            print(f"lost: {error}")
        if args.telemetry is not None:
            # The SLO summary names transport, fleet, seed and concurrency.
            key, path = store_bundle(
                system.telemetry,
                args.telemetry,
                meta={"tool": "hirep-serve", "slo": summary},
            )
            print(f"telemetry bundle: {path} (key {key[:12]})")
    return 0 if report.lost == 0 else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    print(f"{'concurrency':>11} {'tx/s':>8} {'wall_ms':>9} {'lost':>5}")
    worst = 0
    for concurrency in args.concurrency_list:
        args.concurrency = concurrency
        system = _build_fleet(args)
        with system:
            report = _run_load(system, args)
        print(
            f"{concurrency:>11} {report.tx_per_sec:>8.1f} "
            f"{report.wall_ms:>9.0f} {report.lost:>5}"
        )
        worst = max(worst, report.lost)
    return 0 if worst == 0 else 1


def _parse_concurrency_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad concurrency list {raw!r}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"bad concurrency list {raw!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hirep-serve", description="hiREP live service plane"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    up = sub.add_parser("up", help="bring a fleet up and down (smoke test)")
    _add_fleet_args(up)
    up.set_defaults(func=_cmd_up)

    load = sub.add_parser("load", help="replay a trace and report SLOs")
    _add_fleet_args(load)
    _add_trace_args(load)
    load.add_argument(
        "--concurrency", type=int, default=4, help="transactions in flight"
    )
    load.add_argument(
        "--rate", type=float, default=None, help="open-loop arrival rate (tx/s)"
    )
    load.add_argument(
        "--telemetry", default=None, help="bundle store root for the full record"
    )
    load.add_argument(
        "--profile",
        nargs="?",
        const="1",
        default=None,
        choices=["1", "mem"],
        help="sample a wall-clock profile of the run (mem = +tracemalloc); "
        "lands in the bundle as profile.json when --telemetry is set",
    )
    load.set_defaults(func=_cmd_load)

    bench = sub.add_parser("bench", help="throughput at several concurrencies")
    _add_fleet_args(bench)
    _add_trace_args(bench)
    bench.add_argument(
        "--concurrency-list",
        type=_parse_concurrency_list,
        default=[1, 4, 16],
        help="comma-separated concurrency levels",
    )
    bench.add_argument("--rate", type=float, default=None, help=argparse.SUPPRESS)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return cast(int, args.func(args))


if __name__ == "__main__":
    raise SystemExit(main())
