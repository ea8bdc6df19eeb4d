"""Warm-pool keep-alive study."""

from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.pool_study import run_pool_study
from repro.experiments.registry import ExperimentConfig
from repro.faas.keepalive import FixedWindow
from repro.sim.units import seconds
from tests.retention import cell_leftovers


@pytest.fixture(scope="module")
def study():
    return run_pool_study(seed=0)


class TestHitRates:
    def test_all_policies_ran_same_trace(self, study):
        triggers = {study.outcome(n).triggers for n in study.policy_names()}
        assert len(triggers) == 1

    def test_longer_fixed_window_higher_hit_rate(self, study):
        assert (
            study.outcome("fixed-120s").hit_rate
            >= study.outcome("fixed-30s").hit_rate
            >= study.outcome("fixed-5s").hit_rate
        )

    def test_hits_plus_colds_equals_triggers(self, study):
        for name in study.policy_names():
            outcome = study.outcome(name)
            assert outcome.warm_hits + outcome.cold_starts == outcome.triggers

    def test_histogram_beats_shortest_fixed(self, study):
        assert (
            study.outcome("histogram").hit_rate
            > study.outcome("fixed-5s").hit_rate
        )

    def test_shorter_window_more_evictions(self, study):
        assert (
            study.outcome("fixed-5s").evictions
            >= study.outcome("fixed-120s").evictions
        )

    def test_mean_init_tracks_cold_starts(self, study):
        """More cold starts -> higher mean initialization."""
        by_colds = sorted(
            (study.outcome(n) for n in study.policy_names()),
            key=lambda o: o.cold_starts,
        )
        inits = [o.mean_init_us for o in by_colds]
        assert inits == sorted(inits)



class TestCustomPolicies:
    def test_custom_policy_set(self):
        result = run_pool_study(
            policies={"only": FixedWindow(seconds(60))},
            functions=3,
            duration_s=30.0,
            seed=1,
        )
        assert result.policy_names() == ["only"]
        outcome = result.outcome("only")
        assert outcome.triggers > 0
        assert 0.0 <= outcome.hit_rate <= 1.0


class TestRetention:
    def test_study_leaves_nothing_for_the_cyclic_collector(self):
        # Each policy's engine is closed once its outcome is read.
        result, _, unreachable = cell_leftovers(
            lambda: run_pool_study(functions=3, duration_s=30.0, seed=1)
        )
        assert len(result.policy_names()) > 1
        assert unreachable == 0


class TestGolden:
    def test_fast_seed0_summary_matches_golden(self):
        """The fast study's rendered table, byte for byte, as captured
        before the pool took prewarm policies."""
        golden = Path(__file__).parent / "golden" / "pool_study_fast_seed0.txt"
        summary = registry.get("pool_study").run(
            ExperimentConfig(fast=True, seed=0)
        ).summary()
        assert summary + "\n" == golden.read_text()
