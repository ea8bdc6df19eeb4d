"""Cluster placement study."""

import pytest

from repro.experiments.cluster_study import run_cluster_study
from tests.retention import cell_leftovers


@pytest.fixture(scope="module")
def study():
    return run_cluster_study(seed=0, duration_s=40.0)


class TestPlacementTradeoffs:
    def test_same_trace_all_policies(self, study):
        counts = {study.outcome(p).triggers for p in study.policies()}
        assert len(counts) == 1

    def test_warm_affinity_fewest_cold_fallbacks(self, study):
        affinity = study.outcome("warm-affinity").cold_fallbacks
        assert affinity <= study.outcome("round-robin").cold_fallbacks
        assert affinity <= study.outcome("least-loaded").cold_fallbacks

    def test_round_robin_best_balance(self, study):
        rr = study.outcome("round-robin").balance_cv
        assert rr <= study.outcome("warm-affinity").balance_cv
        assert rr <= study.outcome("least-loaded").balance_cv
        assert rr < 0.1

    def test_warm_affinity_lowest_mean_init(self, study):
        affinity = study.outcome("warm-affinity").mean_init_us
        assert affinity <= study.outcome("round-robin").mean_init_us

    def test_cold_rates_are_small(self, study):
        """Pools are provisioned; fallbacks should be the exception."""
        for policy in study.policies():
            assert study.outcome(policy).cold_rate < 0.15

    def test_hosts_recorded(self, study):
        assert study.hosts == 4


class TestRetention:
    def test_study_leaves_nothing_for_the_cyclic_collector(self):
        # Each policy's cell is closed once its outcome is read.
        result, _, unreachable = cell_leftovers(
            lambda: run_cluster_study(hosts=2, functions=3, duration_s=5.0)
        )
        assert result.policies() == [
            "least-loaded", "round-robin", "warm-affinity"
        ]
        assert unreachable == 0
