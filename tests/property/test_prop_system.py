"""Property-based tests over the system configuration space.

The strongest robustness statement the library can make: *any* valid small
configuration builds a working system — bootstrap succeeds, a transaction
completes, metrics are sane — regardless of how the knobs combine.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import HiRepConfig
from repro.core.system import HiRepSystem

configs = st.fixed_dictionaries(
    {
        "network_size": st.integers(min_value=20, max_value=90),
        "avg_neighbors": st.sampled_from([2.0, 3.0, 4.0, 6.0]),
        "onion_relays": st.integers(min_value=0, max_value=6),
        "trusted_agents": st.integers(min_value=2, max_value=20),
        "agents_queried": st.integers(min_value=1, max_value=8),
        "tokens": st.integers(min_value=1, max_value=12),
        "ttl": st.integers(min_value=1, max_value=5),
        "expertise_alpha": st.sampled_from([0.1, 0.5, 0.9]),
        "eviction_threshold": st.sampled_from([0.0, 0.4, 0.8]),
        "poor_agent_fraction": st.sampled_from([0.0, 0.3, 0.9]),
        "untrusted_peer_fraction": st.sampled_from([0.1, 0.5, 0.9]),
        "backup_cache_size": st.integers(min_value=0, max_value=10),
        "topology_kind": st.sampled_from(["power_law", "random", "small_world"]),
        "seed": st.integers(min_value=0, max_value=2**31),
    }
)


@given(params=configs)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_valid_config_runs_a_transaction(params):
    params["refill_threshold"] = max(1, params["trusted_agents"] // 2)
    cfg = HiRepConfig(**params)
    system = HiRepSystem(cfg)
    system.bootstrap()
    system.reset_metrics()
    out = system.run_transaction(requestor=0)
    # Universal invariants:
    assert 0.0 <= out.estimate <= 1.0
    assert out.truth in (0.0, 1.0)
    assert out.trust_messages >= 0
    assert out.total_messages >= out.trust_messages
    assert out.answered <= out.asked
    if out.answered > 0:
        # Traffic never exceeds three onion legs per agent asked.
        per_hop = cfg.onion_relays + 1
        assert out.trust_messages <= 3 * out.asked * per_hop
    # Determinism: the same config replays identically.
    system2 = HiRepSystem(cfg)
    system2.bootstrap()
    system2.reset_metrics()
    out2 = system2.run_transaction(requestor=0)
    assert out2.estimate == out.estimate
    assert out2.trust_messages == out.trust_messages
