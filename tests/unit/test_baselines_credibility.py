"""Unit tests for credibility-weighted voting."""

import pytest

from repro.baselines.credibility import CredibilityVotingSystem
from repro.baselines.voting import PureVotingSystem
from repro.core.config import HiRepConfig
from repro.errors import ConfigError

CFG = HiRepConfig(network_size=150, seed=202, malicious_fraction=0.3)


def test_alpha_validation():
    """α is ``config.expertise_alpha``, so the config is what refuses one
    outside (0, 1): after one poll a consistent voter keeps the prior 1.0
    and an inconsistent one falls to 1 − α."""
    with pytest.raises(ConfigError):
        CFG.with_(expertise_alpha=0.0)
    for alpha in (0.25, 0.75):
        system = CredibilityVotingSystem(CFG.with_(expertise_alpha=alpha))
        system.run_transaction(requestor=0)
        assert set(system._credibility[0].values()) == {1.0, 1.0 - alpha}


def test_first_transaction_matches_plain_mean():
    """With no track record, the estimate degrades to the plain mean."""
    cred = CredibilityVotingSystem(CFG)
    plain = PureVotingSystem(CFG)
    a = cred.run_transaction(requestor=0, provider=5)
    b = plain.run_transaction(requestor=0, provider=5)
    assert a.voters == b.voters
    # Same world, same rating draws order isn't guaranteed; compare coarsely.
    assert abs(a.estimate - b.estimate) < 0.2


def test_credibility_learns_malicious_voters():
    system = CredibilityVotingSystem(CFG)
    system.run(30, requestor=0)
    cred = system._credibility[0]
    honest_vals = [v for n, v in cred.items() if not system.malicious[n]]
    malicious_vals = [v for n, v in cred.items() if system.malicious[n]]
    assert honest_vals and malicious_vals
    assert min(honest_vals) > max(malicious_vals)


def test_converges_below_plain_voting():
    """Curation alone fixes voting's accuracy (the hiREP decomposition)."""
    cred = CredibilityVotingSystem(CFG)
    plain = PureVotingSystem(CFG)
    cred.run(60, requestor=0)
    plain.run(60, requestor=0)
    assert cred.mse.tail_mse(20) < plain.mse.tail_mse(20)


def test_traffic_still_flooding_scale():
    """…but the traffic stays O(network): curation ≠ hierarchy."""
    cred = CredibilityVotingSystem(CFG)
    out = cred.run_transaction(requestor=0)
    assert out.messages > 10 * 3 * (5 + 1)  # far above hiREP's O(c)


def test_credibility_is_per_requestor():
    system = CredibilityVotingSystem(CFG)
    system.run(10, requestor=0)
    assert system._credibility[0]
    assert not system._credibility[1]
