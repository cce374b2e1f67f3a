"""Unit tests for baseline reputation systems."""


import numpy as np
import pytest

from repro.baselines.eigentrust import (
    EigenTrustSystem,
    eigentrust,
    normalize_local_trust,
)
from repro.baselines.trustme import TrustMeSystem
from repro.baselines.voting import PureVotingSystem
from repro.core.config import HiRepConfig
from repro.core.semantics import rate
from repro.errors import ConfigError

CFG = HiRepConfig(network_size=120, seed=44)


class TestRate:
    def test_honest_consistent(self, rng):
        for _ in range(50):
            assert rate(True, 1.0, rng, (0.6, 1.0), (0.0, 0.4)) >= 0.6
            assert rate(True, 0.0, rng, (0.6, 1.0), (0.0, 0.4)) <= 0.4

    def test_malicious_inverted(self, rng):
        for _ in range(50):
            assert rate(False, 1.0, rng, (0.6, 1.0), (0.0, 0.4)) <= 0.4
            assert rate(False, 0.0, rng, (0.6, 1.0), (0.0, 0.4)) >= 0.6


class TestPureVoting:
    def test_transaction_records(self):
        v = PureVotingSystem(CFG)
        out = v.run_transaction(requestor=0)
        assert out.voters > 0
        assert out.messages > out.voters  # flood + responses
        assert 0.0 <= out.estimate <= 1.0
        assert out.response_time_ms > 0

    def test_mse_matches_rating_model(self):
        """With 10% malicious the voting MSE sits near (0.2+0.6a)^2 ≈ 0.07."""
        v = PureVotingSystem(CFG)
        v.run(60)
        assert 0.03 < v.mse.mse() < 0.12

    def test_more_malicious_worse_mse(self):
        good = PureVotingSystem(CFG.with_(malicious_fraction=0.0))
        bad = PureVotingSystem(CFG.with_(malicious_fraction=0.6))
        good.run(40)
        bad.run(40)
        assert bad.mse.mse() > good.mse.mse()

    def test_denser_network_more_messages(self):
        sparse = PureVotingSystem(CFG.with_(avg_neighbors=2.0))
        dense = PureVotingSystem(CFG.with_(avg_neighbors=4.0))
        sparse.run(20)
        dense.run(20)
        assert dense.counter.total > sparse.counter.total

    def test_provider_does_not_vote(self):
        v = PureVotingSystem(CFG)
        out = v.run_transaction(requestor=0, provider=1)
        # voters exclude requestor and provider
        assert out.voters <= CFG.network_size - 2

    def test_no_transmission_model_uses_max_arrival(self):
        v = PureVotingSystem(CFG.with_(model_transmission=False))
        out = v.run_transaction(requestor=0)
        assert out.response_time_ms > 0

    def test_reset_metrics(self):
        v = PureVotingSystem(CFG)
        v.run(3)
        v.reset_metrics()
        assert v.counter.total == 0
        assert len(v.mse) == 0


class TestTrustMe:
    def test_thas_never_self(self):
        tm = TrustMeSystem(CFG)
        for ip, thas in enumerate(tm.thas):
            assert ip not in thas
            assert len(thas) == 3

    def test_two_floods_per_transaction(self):
        tm = TrustMeSystem(CFG)
        tm.run_transaction(requestor=0)
        assert tm.counter.by_category["flood_query"] > 0
        assert tm.counter.by_category["transaction_report"] > 0

    def test_estimate_prior_before_reports(self):
        tm = TrustMeSystem(CFG)
        out = tm.run_transaction(requestor=0, provider=5)
        assert out.estimate == 0.5  # no THA had reports yet

    def test_reports_accumulate(self):
        tm = TrustMeSystem(CFG)
        for _ in range(40):
            tm.run_transaction(requestor=0, provider=5)
        stored = sum(len(s.get(5, [])) for s in tm._stores)
        assert stored > 0


class TestEigenTrust:
    def test_normalize_rows_stochastic(self):
        local = np.array([[0.0, 2.0], [0.0, 0.0]])
        c = normalize_local_trust(local)
        assert np.allclose(c.sum(axis=1), 1.0)
        assert c[0, 1] == 1.0
        assert np.allclose(c[1], [0.5, 0.5])  # uniform fallback

    def test_normalize_clips_negative(self):
        c = normalize_local_trust(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        assert c[0, 0] == 0.0

    def test_normalize_validation(self):
        with pytest.raises(ConfigError):
            normalize_local_trust(np.zeros((2, 3)))

    def test_power_iteration_stochastic_output(self):
        rng = np.random.default_rng(0)
        local = rng.random((20, 20))
        t = eigentrust(local)
        assert t.shape == (20,)
        assert abs(t.sum() - 1.0) < 1e-6
        assert (t >= 0).all()

    def test_pretrusted_bias(self):
        local = np.zeros((10, 10))
        pre = np.zeros(10)
        pre[3] = 1.0
        t = eigentrust(local, pre, alpha=0.5)
        assert t[3] == t.max()

    def test_alpha_validation(self):
        with pytest.raises(ConfigError):
            eigentrust(np.zeros((3, 3)), alpha=1.0)

    def test_good_peers_rank_above_bad(self):
        et = EigenTrustSystem(CFG.with_(network_size=60))
        et.run(400)
        g = et._global
        trusted = g[et.truth == 1.0].mean()
        untrusted = g[et.truth == 0.0].mean()
        assert trusted > untrusted
