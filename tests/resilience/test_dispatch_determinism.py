"""Determinism battery for the dispatch-policy axis.

Two contracts guard the dispatch refactor:

1. **Differential**: the default ``push-least-loaded`` policy must
   reproduce the *pre-refactor* chaos output byte for byte — pinned by
   goldens captured from the code before placement was routed through
   :class:`DispatchPolicy` (``tests/resilience/golden/``).

2. **Policy-invariant determinism**: for *every* registered policy,
   same seed ⇒ byte-identical merged trace regardless of the worker
   count (shards 1/2/4) — the sharded engine's shard-invariance
   contract extended over the whole policy zoo (property-tested with
   hypothesis over policy × seed).
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.chaos import ChaosConfig, render_chaos, run_chaos
from repro.experiments.sharded_chaos import ShardedChaosConfig, run_sharded_chaos
from repro.resilience.policies import DISPATCH_POLICIES
from repro.sim.sharding import records_jsonl

GOLDEN = Path(__file__).parent / "golden"

#: Fast chaos shape the goldens were captured with (pre-refactor code).
FAST_CHAOS = dict(hosts=2, requests=200, seed=0)
FAST_SHARDED = dict(groups=4, hosts=2, requests=240, seed=0)

#: Reduced shape for the 4-policy × 3-shard-count hypothesis sweep.
BATTERY = dict(groups=4, hosts=2, requests=96)

ALL_POLICIES = tuple(DISPATCH_POLICIES.families())


def _merged_trace(policy: str, seed: int, shards: int) -> str:
    config = ShardedChaosConfig(seed=seed, dispatch=policy, **BATTERY)
    result = run_sharded_chaos(config, shards=shards, parallel=False)
    return records_jsonl(result.records)


class TestPushIsByteIdenticalToPreRefactor:
    """The refactor's hard regression gate: goldens from before the
    DispatchPolicy indirection existed."""

    def test_chaos_render_matches_golden(self):
        rendered = render_chaos(run_chaos(ChaosConfig(**FAST_CHAOS)))
        assert rendered + "\n" == (GOLDEN / "chaos_fast_seed0.txt").read_text()

    def test_explicit_default_spec_matches_golden(self):
        rendered = render_chaos(
            run_chaos(ChaosConfig(dispatch="push-least-loaded", **FAST_CHAOS))
        )
        assert rendered + "\n" == (GOLDEN / "chaos_fast_seed0.txt").read_text()

    def test_sharded_trace_matches_golden(self):
        result = run_sharded_chaos(
            ShardedChaosConfig(**FAST_SHARDED), shards=1, parallel=False
        )
        assert records_jsonl(result.records) == (
            GOLDEN / "sharded_fast_seed0.jsonl"
        ).read_text()

    def test_non_default_policy_changes_the_header_only_then(self):
        default = render_chaos(run_chaos(ChaosConfig(**FAST_CHAOS)))
        assert "dispatch=" not in default
        pulled = render_chaos(
            run_chaos(ChaosConfig(dispatch="pull", **FAST_CHAOS))
        )
        assert "dispatch=pull" in pulled


class TestEveryPolicyIsShardInvariant:
    @pytest.mark.slow
    @given(
        policy=st.sampled_from(ALL_POLICIES),
        seed=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=8, deadline=None)
    def test_merged_trace_identical_at_shards_1_2_4(self, policy, seed):
        baseline = _merged_trace(policy, seed, shards=1)
        assert _merged_trace(policy, seed, shards=2) == baseline
        assert _merged_trace(policy, seed, shards=4) == baseline

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_two_same_seed_runs_are_byte_identical(self, policy):
        first = _merged_trace(policy, seed=0, shards=1)
        second = _merged_trace(policy, seed=0, shards=1)
        assert first == second

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_every_policy_runs_fast_chaos_clean(self, policy):
        result = run_chaos(ChaosConfig(dispatch=policy, **FAST_CHAOS))
        assert result.ok, {
            mode: outcome.violations
            for mode, outcome in result.outcomes.items()
        }
