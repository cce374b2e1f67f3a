"""The hand-picked parity cells, by name.

Each cell runs through the generated executor test's ``check``
(tests/property/test_prop_executors.py): every executor that accepts it —
``hirep``, ``hirep-array`` and, without churn, ``serve`` — must agree on
each outcome, the counters, churn statistics, agent population and final
trusted rows, under the §4.1 laws.  The cells: 80 peers, C = 10, four
agents asked, two relays, 40 transactions; seeds × poor-agent fraction,
seeds × churn rate, and a degenerate onion with no relays.
"""

from __future__ import annotations

import pytest

from tests.property.test_prop_executors import cell, check


@pytest.mark.parametrize("seed", [99, 7])
@pytest.mark.parametrize("poor_fraction", [0.10, 0.35])
def test_parity_no_churn(seed: int, poor_fraction: float) -> None:
    assert set(check(cell(seed, poor=poor_fraction))) == {"hirep", "hirep-array", "serve"}


@pytest.mark.parametrize("seed", [99, 7])
@pytest.mark.parametrize("churn_rate", [0.05, 0.15])
def test_parity_under_churn(seed: int, churn_rate: float) -> None:
    ran = check(cell(seed, churn=(churn_rate, 0.4)))
    assert set(ran) == {"hirep", "hirep-array"}
    assert ran["hirep"].churn.stats.departures > 0


def test_parity_zero_relays() -> None:
    """Degenerate onion (no relays)."""
    assert set(check(cell(99, onion_relays=0))) == {"hirep", "hirep-array", "serve"}
