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
cell is degraded, ``hirep-experiments`` still writes the report and then
exits 1, and the scorecard marks the (scenario, system) pair degraded
instead of the whole campaign crashing.

Beside the scorecard the payload carries the run's ``trace``, one entry
per transaction unless noted:

* ``squared_errors`` (NaN as ``None``) and ``answered``;
* ``trust_messages`` — hiREP's trust-process traffic (query, response,
  report, onion hops included); always 0 on the baselines, which bill
  their floods through the message counter instead;
* ``messages`` — the message counter's delta, on every system;
* ``response_ms`` — the query's response time (``None`` when it never
  completed);
* ``by_category`` — the run's counter totals, and ``detail`` — the attack
  handle's readings (both per run).

Experiments read windowed numbers off it (Fig. 6's windowed MSE, Fig. 7's
measure window, DoS before/during/after); scorecards never read it.

The ``fig5``, ``fig6``, ``fig8``, ``traffic_bound``, ``fig7``,
``degradation``, ``churn``, ``robustness`` and ``baselines`` experiments
are lists of these cells, and so are ``ablations``' θ / backup / onion
points (their ``plan()`` compiles campaigns); there a ``cell_error``
fails the experiment (:func:`repro.exec.sweeps.job_values`).
"""

from __future__ import annotations

import math
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


def _trace(system: Any, detail: dict) -> dict:
    """The run's per-transaction record (JSON-able; NaN becomes ``None``)."""
    return {
        "squared_errors": [
            None if math.isnan(v) else v for v in system.mse.squared_errors.tolist()
        ],
        "answered": [int(o.answered) for o in system.outcomes],
        "trust_messages": [int(o.trust_messages) for o in system.outcomes],
        "messages": system.counter.per_transaction().tolist(),
        "response_ms": [
            None if math.isnan(o.response_time_ms) else float(o.response_time_ms)
            for o in system.outcomes
        ],
        "by_category": {k: int(v) for k, v in system.counter.by_category.items()},
        "detail": detail,
    }


def campaign_cell(scenario: dict, system: str, seed: int) -> dict:
    """Run one campaign cell; returns its scorecard and trace (or a
    structured error).

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
    )
    from repro.core.registry import build_system, refuse, supports
    from repro.net.faults import FaultPlane

    workload = spec.workload
    requestor = workload.requestor
    exclude = set() if requestor is None else {requestor}

    # -- config -------------------------------------------------------------
    try:
        # A live fleet's actors outlive this call (docs/scaling.md).
        refuse(system, "campaign")
        cfg = workload.build_config(int(seed), spec.topology)
        # The attack's config component depends on whether protocol-level
        # hooks will also attach (the system's row of CAPABILITIES).
        protocol = supports(system, "protocol_attacks")
        attacked_cfg = attack_config(spec.attack, cfg, protocol=protocol)
        build_opts = attack_build_opts(spec.attack, protocol=protocol)
    except Exception as exc:
        return {**base, "scorecard": None, "cell_error": _cell_error("config", exc)}

    # -- build + attach ------------------------------------------------------
    try:
        instance = build_system(system, attacked_cfg, **build_opts)
        models = spec.fault.build_models(workload.network_size, exclude=exclude)
        plane = FaultPlane(models, seed=int(seed) + 17) if models else None
        if plane is not None:
            plane.install(instance.network)

        churn_model = spec.churn.build(protected=exclude)
        churn_rng = (
            np.random.default_rng(int(seed) + 101) if churn_model is not None else None
        )

        handle = attach_attack(
            instance,
            spec.attack,
            attack_rng(spec.attack, int(seed)),
            protected=exclude,
        )
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
    return {
        **base,
        "scorecard": metrics,
        "trace": _trace(instance, handle.detail),
        "cell_error": None,
    }
