"""The exactly-once differential oracle, exercised as a property.

The acceptance bar for the crash-recoverable control plane: across
randomly generated ``(seed, gateway-failure-rate, gateways, hosts)``
tuples — with host failures off, so every invocation has a well-defined
terminal outcome — the chaos run's terminal-outcome map must be
*identical* to a zero-gateway-failure twin of the same seed, and every
intent-log invariant (no loss, no duplicates, fence monotonicity, no
cross-epoch completion) must hold on every run.  ≥200 generated cases
across the two properties below.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.checks import terminal_outcomes
from repro.experiments.cluster_recovery import (
    ClusterRecoveryConfig,
    run_recovery,
)
from repro.resilience import failures


def _small(seed, rate, gateways, hosts, requests=25):
    return ClusterRecoveryConfig(
        groups=1,
        gateways=gateways,
        hosts=hosts,
        gateway_failure_rate=rate,
        failure_rate=0.0,
        requests=requests,
        drain_s=10.0,
        seed=seed,
    )


class TestExactlyOnceOracle:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rate=st.sampled_from([0.1, 0.2, 0.4, 0.8]),
        gateways=st.integers(min_value=1, max_value=4),
        hosts=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_chaos_outcomes_identical_to_zero_failure_twin(
        self, seed, rate, gateways, hosts
    ):
        result = run_recovery(_small(seed, rate, gateways, hosts), shards=1)
        assert result.oracle_strict
        assert result.oracle_mismatches == []
        assert result.violations == []
        # Every submitted request reached a terminal outcome.
        for cell in result.cells.values():
            assert len(cell.outcomes) == cell.submitted

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.sampled_from([0.3, 0.6]),
        gateways=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_oracle_holds_under_aggressive_crash_cadence(
        self, seed, rate, gateways
    ):
        """Short MTBF: several crash/recover cycles inside one run."""
        config = ClusterRecoveryConfig(
            groups=1,
            gateways=gateways,
            hosts=2,
            gateway_failure_rate=rate,
            failure_rate=0.0,
            requests=40,
            drain_s=10.0,
            seed=seed,
        )
        with mock.patch.object(failures, "GATEWAY_MTBF_BASE_S", 0.1), \
                mock.patch.object(failures, "GATEWAY_RECOVERY_MS", 200.0):
            result = run_recovery(config, shards=1)
        assert result.ok
        assert result.oracle_mismatches == []


class TestOracleDiagnostics:
    def test_terminal_outcome_map_matches_cell_report(self):
        result = run_recovery(_small(3, 0.4, 3, 2, requests=40), shards=1)
        cell = result.cells[0]
        assert set(cell.outcomes) == set(range(cell.submitted))
        assert (
            sum(1 for state in cell.outcomes.values() if state == "completed")
            == cell.completed
        )

    def test_strictness_waived_when_host_failures_enabled(self):
        """With host crashes on, retry nondeterminism across gateway
        epochs makes strict identity meaningless — the oracle downgrades
        to invariant checking instead of reporting phantom divergences."""
        config = ClusterRecoveryConfig(
            groups=1,
            gateways=2,
            hosts=2,
            gateway_failure_rate=0.3,
            failure_rate=0.2,
            requests=30,
            drain_s=10.0,
            seed=7,
        )
        result = run_recovery(config, shards=1)
        assert not result.oracle_strict
        assert result.oracle_mismatches == []
        # Invariants are never waived.
        for cell in result.cells.values():
            assert cell.violations == []
