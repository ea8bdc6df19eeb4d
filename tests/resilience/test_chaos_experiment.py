"""The chaos experiment: soundness, breaker win, CLI determinism.

The determinism check deliberately shells out: sandbox/invocation ids
are process-global counters, so only two *fresh processes* with the
same seed are comparable byte-for-byte.
"""

import os
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.experiments.chaos import (
    CHAOS_MODES,
    ChaosConfig,
    render_chaos,
    run_chaos,
    run_chaos_mode,
)
from repro.experiments.cluster_recovery import ClusterRecoveryConfig
from repro.experiments.dispatch_zoo import DispatchZooConfig
from repro.experiments.sharded_chaos import ShardedChaosConfig
from repro.resilience import FAILURE_KINDS
from tests.retention import cell_leftovers

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def cli_chaos(*extra):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", "chaos", *extra],
        capture_output=True, env=env, text=True,
    )


class TestModes:
    @pytest.mark.parametrize("mode", CHAOS_MODES)
    def test_mode_is_sound(self, mode):
        outcome = run_chaos_mode(mode, ChaosConfig(requests=200, seed=1))
        assert outcome.ok, outcome.violations
        assert outcome.completed + outcome.shed + outcome.failed == (
            outcome.submitted
        )

    @pytest.mark.parametrize("seed", [54, 169, 182, 194, 195])
    def test_failure_deferred_to_a_failing_hedge_still_resolves(self, seed):
        # On these seeds the primary path gives up (deadline or retry
        # budget) while a hedge is still executing, and that hedge then
        # crashes or hangs: the deferred failure must land then.
        result = run_chaos(
            ChaosConfig(requests=1200, dispatch="push-least-loaded", seed=seed)
        )
        for outcome in result.outcomes.values():
            assert outcome.ok, (outcome.mode, outcome.violations)

    def test_breaker_beats_retries_only_at_tail(self):
        # The acceptance criterion: under the default seeded failure
        # profile, steering placement off flaky hosts measurably cuts
        # the uLL p99 versus the same stack with breakers disabled.
        breaker = run_chaos_mode("breaker", ChaosConfig(seed=0))
        retries = run_chaos_mode("retries-only", ChaosConfig(seed=0))
        assert breaker.ok and retries.ok
        assert breaker.ull_p99_us < retries.ull_p99_us

    def test_all_failure_kinds_fire_in_study(self):
        # Non-vacuity at the experiment level: the default profile
        # actually exercises every failure domain.
        outcome = run_chaos_mode("breaker", ChaosConfig(seed=0))
        for kind in FAILURE_KINDS:
            assert outcome.fired[kind] > 0, f"{kind} never fired"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(hosts=0)
        with pytest.raises(ValueError):
            ChaosConfig(failure_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(requests=0)


#: Shape values that used to yield a plausible empty table or a crash.
_HOSTILE = (
    ("drain_s", 0.0),
    ("drain_s", -1.0),
    ("mean_interarrival_ms", 0.0),
    ("mean_interarrival_ms", float("nan")),
    ("crash_mtbf_base_s", 0.0),
)


@pytest.mark.parametrize(
    "config_type, name, value",
    [
        (config_type, name, value)
        for config_type in (
            ChaosConfig,
            ShardedChaosConfig,
            ClusterRecoveryConfig,
            DispatchZooConfig,
        )
        for name, value in _HOSTILE
        if name in {f.name for f in fields(config_type)}
    ],
)
def test_hostile_shape_value_rejected_by_name(config_type, name, value):
    with pytest.raises(ValueError, match=name):
        config_type(**{name: value})


class TestRender:
    def test_table_lists_every_mode(self):
        result = run_chaos(ChaosConfig(requests=150, seed=2))
        table = render_chaos(result)
        for mode in CHAOS_MODES:
            assert mode in table
        assert "uLL p99 us" in table


class TestCli:
    def test_same_seed_runs_byte_identical(self):
        flags = ("cluster", "--seed", "3", "--failure-rate", "0.2",
                 "--requests", "300")
        first = cli_chaos(*flags)
        second = cli_chaos(*flags)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert first.stdout.strip()

    def test_unknown_experiment_exits_2(self):
        result = cli_chaos("bogus")
        assert result.returncode == 2

    def test_bad_failure_rate_exits_2(self):
        result = cli_chaos("cluster", "--failure-rate", "2.0")
        assert result.returncode == 2


class TestRetention:
    #: A finished mode run leaves its ModeOutcome and nothing of the
    #: stack it drove (2 tracked objects on CPython 3.11: the outcome
    #: and its violation list).  Before the engine was closed and the
    #: back-references cut, ``run_chaos(requests=300)`` left 10,110
    #: objects, all of them cyclic garbage.
    PER_CELL = 4

    @pytest.mark.parametrize("mode", CHAOS_MODES)
    def test_mode_cell_leaves_nothing_for_the_cyclic_collector(self, mode):
        config = ChaosConfig(requests=300, seed=0)
        outcome, left, unreachable = cell_leftovers(
            lambda: run_chaos_mode(mode, config)
        )
        assert outcome.submitted == 300
        assert unreachable == 0
        assert left <= self.PER_CELL, f"{left} tracked objects left"
