"""The capability table: what each hiREP executor refuses, and where.

:data:`repro.core.registry.CAPABILITIES` is the one statement of it.  The
registry refuses build options and config fields from it before the
builder runs, and docs/scaling.md's "Capability matrix" must say the same.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.core.config import HiRepConfig
from repro.core.registry import CAPABILITIES, SystemRegistry, refuse, supports
from repro.errors import ConfigError

SCALING = Path(__file__).resolve().parents[2] / "docs" / "scaling.md"

#: The matrix rows that state a capability, by the start of their label.
ROWS = {
    "churn": {"churn"},
    "fault planes": {"fault"},
    "query timeouts": {"timeout"},
    "custom `topology` / `model_factory`": {"topology", "model_factory"},
    "protocol-level attacks": {"protocol_attacks"},
    "campaign cells": {"campaign"},
}


def matrix() -> tuple[list[str], list[list[str]]]:
    """The capability matrix's executor columns and its body rows."""
    section = SCALING.read_text().split("## Capability matrix", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    executors = [re.match(r"`([^`]+)`", cell).group(1) for cell in cells[0][1:]]
    return executors, cells[2:]


def test_the_docs_matrix_states_the_table():
    executors, rows = matrix()
    assert executors == list(CAPABILITIES)
    stated = set()
    for label, *columns in rows:
        caps = next((caps for start, caps in ROWS.items() if label.startswith(start)), None)
        if caps is None:
            continue
        stated |= caps
        for name, cell in zip(executors, columns):
            refused = caps & CAPABILITIES[name]
            assert refused in (set(), caps), (label, name)
            assert cell.startswith("**no**") == bool(refused), (label, name, cell)
    assert stated == set().union(*ROWS.values())
    assert set().union(*CAPABILITIES.values()) <= stated


def test_a_refusal_names_the_executors_that_take_it():
    with pytest.raises(ConfigError) as refused:
        refuse("serve", "churn")
    assert str(refused.value) == "serve does not support churn=; use 'hirep' or 'hirep-array'"
    with pytest.raises(ConfigError) as refused:
        refuse("hirep-array", "fault")
    assert str(refused.value) == "hirep-array does not support fault planes; use 'hirep'"
    refuse("hirep", "timeout")
    refuse("voting", "fault")  # no hiREP executor: the table refuses it nothing
    assert supports("hirep", "protocol_attacks")
    assert not supports("hirep-array", "protocol_attacks")
    assert not supports("voting", "protocol_attacks")


def test_the_registry_refuses_before_the_builder_runs():
    built = []
    registry = SystemRegistry()
    registry.register("serve", lambda config, **opts: built.append(opts))
    timed = HiRepConfig(network_size=20, query_timeout_ms=500.0)
    with pytest.raises(ConfigError, match="query_timeout_ms; use 'hirep'$"):
        registry.build("serve", timed)
    with pytest.raises(ConfigError, match="topology="):
        registry.build("serve", None, topology=object())
    assert built == []
    # A refused option left at None is dropped; any other is passed on.
    registry.build("serve", None, churn=None, model_factory=None, transport="inproc")
    assert built == [{"transport": "inproc"}]
