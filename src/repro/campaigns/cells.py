"""The campaign cell: one (scenario, system, seed) run as a picklable job.

:func:`campaign_cell` is the ``module.func`` every compiled campaign
:class:`~repro.exec.job.JobSpec` names, so it follows the worker
contract: scalar/JSON arguments in, JSON-able payload out, everything
built from scratch inside the call.  The scenario attaches to a
registry-built system **from the outside** (the same pattern as
:mod:`repro.obs`): faults install on the network post-build, churn is
stepped externally between transactions, and attacks go through
:mod:`repro.campaigns.attach` — protocol code is never scenario-aware.

Failure contract (the sweep must survive a broken cell): any exception
during config construction, world build, attachment, or the run itself is
caught and returned as a structured ``cell_error`` with the stage it
died in — the scheduler records a *successful* job whose payload says the
cell is degraded, ``hirep-campaign run --strict`` turns that into a
non-zero exit, and the scorecard marks the (scenario, system) pair
degraded instead of the whole campaign crashing.

The ``degradation`` and ``churn`` experiments are lists of these cells
too (their ``plan()`` is a ``Campaign.compile()``); there a ``cell_error``
fails the experiment (:func:`repro.exec.sweeps.job_values`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.campaigns.scorecard import cell_metrics
from repro.campaigns.specs import ScenarioSpec

__all__ = ["campaign_cell"]


def _cell_error(stage: str, exc: BaseException) -> dict:
    return {
        "stage": stage,
        "type": type(exc).__name__,
        "message": str(exc),
    }


def _run_span(
    system: Any,
    transactions: int,
    requestor: int | None,
    churn_model: Any,
    churn_rng: np.random.Generator | None,
) -> None:
    """Run ``transactions`` with churn stepped externally between them."""
    protect = () if requestor is None else (requestor,)
    for _ in range(transactions):
        if churn_model is not None:
            churn_model.step(system.network, churn_rng, extra_protected=protect)
        system.run_transaction(requestor)


def campaign_cell(scenario: dict, system: str, seed: int) -> dict:
    """Run one campaign cell; returns its scorecard (or structured error).

    ``scenario`` is a ``ScenarioSpec.to_dict()`` payload — plain data, so
    the spec's canonical hash, not any live object, is what crossed the
    process boundary.
    """
    spec = ScenarioSpec.from_dict(scenario)
    base = {
        "scenario": spec.name,
        "scenario_hash": spec.hash(),
        "system": system,
        "seed": int(seed),
        "clean": spec.is_clean(),
    }

    from repro.campaigns.attach import (
        attack_build_opts,
        attack_config,
        attack_rng,
        attach_attack,
        supports_protocol_attacks,
    )
    from repro.core.registry import build_system
    from repro.net.faults import FaultPlane

    workload = spec.workload
    requestor = workload.requestor
    exclude = set() if requestor is None else {requestor}

    # -- config -------------------------------------------------------------
    try:
        cfg = workload.build_config(int(seed), spec.topology)
        # The attack's config component depends on whether protocol-level
        # hooks will also attach; that capability is static per system
        # kind, so decide it from the name and let attach_attack's own
        # runtime probe be the guard for foreign "hirep" registrations.
        protocol = system == "hirep"
        attacked_cfg = attack_config(spec.attack, cfg, protocol=protocol)
        build_opts = attack_build_opts(spec.attack, protocol=protocol)
    except Exception as exc:
        return {**base, "scorecard": None, "cell_error": _cell_error("config", exc)}

    # -- build + attach ------------------------------------------------------
    try:
        instance = build_system(system, attacked_cfg, **build_opts)
        if protocol and not supports_protocol_attacks(instance):
            # A registry kind named "hirep" without the hooks — rebuild
            # under the population-level interpretation instead.
            attacked_cfg = attack_config(spec.attack, cfg, protocol=False)
            instance = build_system(system, attacked_cfg)

        models = spec.fault.build_models(workload.network_size, exclude=exclude)
        plane = FaultPlane(models, seed=int(seed) + 17) if models else None
        if plane is not None:
            plane.install(instance.network)

        churn_model = spec.churn.build(protected=exclude)
        churn_rng = (
            np.random.default_rng(int(seed) + 101) if churn_model is not None else None
        )

        handle = attach_attack(instance, spec.attack, attack_rng(spec.attack, int(seed)))
    except Exception as exc:
        return {**base, "scorecard": None, "cell_error": _cell_error("attach", exc)}

    # -- run -----------------------------------------------------------------
    try:
        if hasattr(instance, "bootstrap"):
            instance.bootstrap()
        instance.reset_metrics()
        transactions = workload.transactions
        done = 0
        for at, action in sorted(handle.events, key=lambda e: e[0]):
            at = min(max(at, done), transactions)
            _run_span(instance, at - done, requestor, churn_model, churn_rng)
            done = at
            action(instance)
        _run_span(instance, transactions - done, requestor, churn_model, churn_rng)
    except Exception as exc:
        return {**base, "scorecard": None, "cell_error": _cell_error("run", exc)}

    metrics = cell_metrics(
        instance,
        workload.transactions,
        fault_plane=plane,
        churn_model=churn_model,
        attack_level=handle.level,
    )
    return {**base, "scorecard": metrics, "cell_error": None}
