"""Every job the runner can plan crosses the process-pool boundary intact.

``--jobs N`` pickles each ``JobSpec`` to a worker, which imports
``spec.module`` and calls ``spec.func``; the parent keeps ``plan.assemble``
to fold the outcomes, and workers rebuild the campaign catalogue by
importing it.  A lambda or a closure anywhere on that path pickles by a
qualified name that does not exist (``<lambda>``, ``f.<locals>.g``).
EXC001 sees such a callable when it is written at the sink; this test
sees it however it got there — through an import, an alias or a
re-export — by building the live plans and pickling them.
"""

from __future__ import annotations

import importlib
import pickle
from functools import partial

import pytest

from repro.campaigns.catalogue import CAMPAIGNS, campaign_names
from repro.exec.sweeps import plan_for, replication_plan
from repro.exec.worker import execute_spec
from repro.experiments import runner

IDS = [*runner.EXPERIMENTS, *campaign_names()]


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def assert_same_callable(fn) -> None:
    """``fn`` pickles by reference and comes back as the same callable."""
    back = round_trip(fn)
    if isinstance(fn, partial):
        assert (back.func, back.args, back.keywords) == (fn.func, fn.args, fn.keywords)
        fn = fn.func
    else:
        assert back is fn
    assert "<lambda>" not in fn.__qualname__ and "<locals>" not in fn.__qualname__


def test_ids_are_what_list_prints(capsys):
    assert runner.main(["--list"]) == 0
    assert capsys.readouterr().out.split() == IDS


@pytest.mark.parametrize("name", IDS)
def test_planned_jobs_and_folds_pickle(name):
    module, kwargs = runner._resolve(name, "small")
    plans = [plan_for(name, module, kwargs)]
    if "seed" in runner._parameters(module):  # what --replicate plans
        seed = kwargs.pop("seed", runner.DEFAULT_SEED)
        plans.append(replication_plan(name, module, [seed, seed + 1], kwargs))
    for plan in plans:
        assert_same_callable(plan.assemble)
        for spec in plan.specs:
            assert round_trip(spec) == spec
            func = getattr(importlib.import_module(spec.module), spec.func)
            assert callable(func), f"{spec.module}.{spec.func}"
            assert_same_callable(func)


def test_campaign_factories_and_worker_entry_pickle():
    for factory in CAMPAIGNS.values():
        assert_same_callable(factory)
    assert_same_callable(execute_spec)
