"""Property-based tests over the system configuration space.

The strongest robustness statement the library can make: *any* valid small
configuration builds a working system — bootstrap succeeds, a transaction
completes under the §4.1 laws — regardless of how the knobs combine, and
the same config replays identically.  The draws are the generated executor
test's (tests/property/test_prop_executors.py), which also compares the
executors with each other.
"""

from hypothesis import HealthCheck, given, settings

from tests.property.test_prop_executors import case, configs, launch, outcome_key, run_case


@given(params=configs)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_valid_config_runs_a_transaction(params):
    one = {**case(params, transactions=1), "requestor": 0}
    runs = [launch("hirep", one) for _ in range(2)]
    for system in runs:
        run_case(system, one)
    first, second = ([*map(outcome_key, s.outcomes), s.outcomes[0].estimate] for s in runs)
    assert first == second
