"""Capture fixed-seed golden outcomes for the kernel-refactor equivalence suite.

Run from the repo root against the PRE-refactor tree (post `_link_free_at`
bugfix) to pin per-transaction outcomes for hiREP and every baseline:

    PYTHONPATH=src python tests/data/capture_goldens.py

The refactor must reproduce these bit for bit (see
tests/integration/test_kernel_equivalence.py).  The ``gossip`` row was
added later, captured on the tree just before the baselines were rebuilt
on ``repro.core.semantics`` (``rate``, ``aggregate_estimate``); that
capture also gave every row each field ``Outcome`` has, values unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib

from repro.baselines.credibility import CredibilityVotingSystem
from repro.baselines.eigentrust import EigenTrustSystem
from repro.baselines.gossip import GossipSystem
from repro.baselines.local import LocalReputationSystem
from repro.baselines.trustme import TrustMeSystem
from repro.baselines.voting import PureVotingSystem
from repro.core.system import HiRepSystem
from repro.workloads.scenarios import default_config

TRANSACTIONS = 25


def build(name: str):
    cfg = default_config(network_size=80, seed=99).with_(
        trusted_agents=10, refill_threshold=6, agents_queried=4, onion_relays=2
    )
    builders = {
        "hirep": HiRepSystem,
        "voting": PureVotingSystem,
        "credibility": CredibilityVotingSystem,
        "trustme": TrustMeSystem,
        "local": LocalReputationSystem,
        "eigentrust": EigenTrustSystem,
        "gossip": GossipSystem,
    }
    return builders[name](cfg)


def sanitize(value: object) -> object:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def outcome_rows(system) -> list[dict]:
    rows = []
    for o in system.outcomes:
        d = {k: sanitize(v) for k, v in dataclasses.asdict(o).items()}
        rows.append(d)
    return rows


def main() -> None:
    goldens = {}
    for name in (
        "hirep", "voting", "credibility", "trustme", "local", "eigentrust", "gossip"
    ):
        system = build(name)
        system.run(TRANSACTIONS)
        goldens[name] = {
            "outcomes": outcome_rows(system),
            "message_total": system.network.counter.total,
            "transactions_run": system.transactions_run,
        }
        print(f"{name}: {len(system.outcomes)} outcomes, "
              f"{system.network.counter.total} messages")
    out = pathlib.Path(__file__).with_name("golden_outcomes.json")
    out.write_text(json.dumps(goldens, indent=1, sort_keys=True))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
