"""Pool autoscaler: rate tracking and reconciliation."""

import pytest

from repro.faas import FaaSPlatform, FunctionSpec, StartType
from repro.faas.autoscaler import AutoscalerConfig, PoolAutoscaler
from repro.sim.units import microseconds, seconds
from repro.workloads import FirewallWorkload


def make_platform():
    faas = FaaSPlatform.build("firecracker", seed=3)
    faas.register(FunctionSpec("fw", FirewallWorkload()))
    return faas


def autoscale_ticks(engine, function="fw"):
    """Times of the pending reconciliation ticks for *function*."""
    return [
        event.time for event in engine.pending_events()
        if event.label == f"autoscale:{function}"
    ]


def make_autoscaler(faas, **overrides):
    defaults = dict(
        window_ns=seconds(10), period_ns=seconds(2), headroom=1.5,
        min_pool=1, max_pool=8,
    )
    defaults.update(overrides)
    return PoolAutoscaler(
        faas,
        "fw",
        expected_busy_ns=seconds(1),  # exaggerated busy time for testing
        config=AutoscalerConfig(**defaults),
    )


class TestConfig:
    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_pool=5, max_pool=2)

    def test_bad_headroom_rejected(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(headroom=0.5)

    def test_bad_busy_time_rejected(self):
        faas = make_platform()
        with pytest.raises(ValueError):
            PoolAutoscaler(faas, "fw", expected_busy_ns=0)


class TestRateTracking:
    def test_rate_counts_window_arrivals(self):
        faas = make_platform()
        scaler = make_autoscaler(faas)
        for _ in range(20):
            scaler.observe_trigger()
        assert scaler.tracker.rate_per_second(faas.engine.now) == pytest.approx(2.0)

    def test_old_arrivals_expire(self):
        faas = make_platform()
        scaler = make_autoscaler(faas)
        scaler.observe_trigger()
        faas.engine.run(until=seconds(20))
        assert scaler.tracker.rate_per_second(faas.engine.now) == 0.0

    def test_desired_size_follows_littles_law(self):
        faas = make_platform()
        scaler = make_autoscaler(faas)
        # 2/s observed, 1 s busy, 1.5 headroom -> ceil(3.0) = 3
        for _ in range(20):
            scaler.observe_trigger()
        assert scaler.desired_pool_size() == 3

    def test_desired_size_clamped(self):
        faas = make_platform()
        scaler = make_autoscaler(faas, max_pool=2)
        for _ in range(100):
            scaler.observe_trigger()
        assert scaler.desired_pool_size() == 2

    def test_idle_floor(self):
        faas = make_platform()
        scaler = make_autoscaler(faas, min_pool=1)
        assert scaler.desired_pool_size() == 1


class TestReconciliation:
    def test_scale_up_provisions_sandboxes(self):
        faas = make_platform()
        scaler = make_autoscaler(faas)
        scaler.start()
        for _ in range(20):
            scaler.observe_trigger()
        assert faas.pool.size("fw") == 0
        faas.engine.run(until=seconds(3))  # one reconciliation
        assert faas.pool.size("fw") == 3
        assert faas.pool.provisioned_count("fw") == 3

    def test_scale_down_lowers_quota(self):
        faas = make_platform()
        scaler = make_autoscaler(faas, min_pool=1)
        scaler.start()
        for _ in range(20):
            scaler.observe_trigger()
        faas.engine.run(until=seconds(3))
        assert faas.pool.provisioned_count("fw") == 3
        # traffic stops; the quota shrinks on a later reconciliation
        faas.engine.run(until=seconds(15))
        assert faas.pool.provisioned_count("fw") == 1

    def test_stop_halts_reconciliation(self):
        faas = make_platform()
        scaler = make_autoscaler(faas)
        scaler.start()
        faas.engine.run(until=seconds(3))
        assert autoscale_ticks(faas.engine) == [seconds(4)]
        scaler.stop()
        assert autoscale_ticks(faas.engine) == []
        for _ in range(20):
            scaler.observe_trigger()
        faas.engine.run(until=seconds(30))
        assert autoscale_ticks(faas.engine) == []
        assert faas.pool.provisioned_count("fw") == 1

    def test_scaled_pool_serves_horse_triggers(self):
        faas = make_platform()
        scaler = make_autoscaler(faas)
        scaler.start()
        for _ in range(20):
            scaler.observe_trigger()
        faas.engine.run(until=seconds(3))
        invocation = faas.trigger("fw", StartType.HORSE)
        faas.engine.run(until=faas.engine.now + seconds(1))
        assert invocation.completed
        assert invocation.initialization_ns < microseconds(1)


class TestTrackerCore:
    """PoolTargetTracker is the engine-free core shared with the
    prewarm budget protection; pin it on its own."""

    def test_validation(self):
        from repro.faas.autoscaler import PoolTargetTracker

        with pytest.raises(ValueError, match="window"):
            PoolTargetTracker(window_ns=0, expected_busy_ns=1)
        with pytest.raises(ValueError, match="busy"):
            PoolTargetTracker(window_ns=1, expected_busy_ns=0)
        with pytest.raises(ValueError, match="headroom"):
            PoolTargetTracker(window_ns=1, expected_busy_ns=1, headroom=0.9)
        with pytest.raises(ValueError, match="bounds"):
            PoolTargetTracker(
                window_ns=1, expected_busy_ns=1, min_pool=5, max_pool=2
            )

    def test_empty_window_rate_zero_target_floor(self):
        from repro.faas.autoscaler import PoolTargetTracker

        tracker = PoolTargetTracker(
            window_ns=seconds(10), expected_busy_ns=seconds(1), min_pool=2
        )
        assert tracker.rate_per_second(seconds(100)) == 0.0
        assert tracker.target(seconds(100)) == 2

    def test_arrivals_expire_without_new_observations(self):
        from repro.faas.autoscaler import PoolTargetTracker

        tracker = PoolTargetTracker(
            window_ns=seconds(10), expected_busy_ns=seconds(1), min_pool=0
        )
        for _ in range(30):
            tracker.observe(seconds(1))
        assert tracker.target(seconds(2)) > 0
        # Reading far in the future must expire the whole window even
        # though observe() was never called again.
        assert tracker.rate_per_second(seconds(60)) == 0.0
        assert tracker.target(seconds(60)) == 0

    def test_target_clamps_both_ends(self):
        from repro.faas.autoscaler import PoolTargetTracker

        tracker = PoolTargetTracker(
            window_ns=seconds(10), expected_busy_ns=seconds(1),
            min_pool=1, max_pool=4,
        )
        assert tracker.target(0) == 1  # floor with no traffic
        for _ in range(1000):
            tracker.observe(seconds(5))
        assert tracker.target(seconds(5)) == 4  # ceiling under flood


class TestEdgeCases:
    def test_empty_rate_window_reconciles_to_floor(self):
        """A reconciliation with zero observed traffic must not divide
        by anything or go below min_pool."""
        faas = make_platform()
        scaler = make_autoscaler(faas, min_pool=1)
        scaler.start()
        faas.engine.run(until=seconds(5))  # ticks with an empty window
        assert autoscale_ticks(faas.engine) == [seconds(6)]  # 2 s, 4 s ran
        assert scaler.current_target == 1
        assert faas.pool.provisioned_count("fw") == 1

    def test_scale_down_races_in_flight_invocations(self):
        """Quota shrinks while sandboxes are busy: the in-flight work
        must complete untouched and the pool settle at the new target
        afterwards — scale-down is quota-only, never teardown."""
        faas = make_platform()
        scaler = make_autoscaler(faas, min_pool=1)
        scaler.start()
        for _ in range(20):
            scaler.observe_trigger()
        faas.engine.run(until=seconds(3))
        assert faas.pool.size("fw") == 3
        # Occupy the pool, then let traffic stop so the next
        # reconciliations race the busy sandboxes with a lower target.
        invocations = [
            faas.trigger("fw", StartType.HORSE) for _ in range(3)
        ]
        faas.engine.run(until=seconds(20))
        assert all(invocation.completed for invocation in invocations)
        assert scaler.current_target == 1
        assert faas.pool.provisioned_count("fw") == 1
        assert faas.pool.size("fw") <= 3

    def test_reconciliation_across_gateway_recovery(self):
        """The autoscaler lives on the data plane: a control-plane
        crash/recovery (gateway epoch bump) must neither stop its ticks
        nor reset its rate window."""
        from repro.faas.autoscaler import AutoscalerConfig, PoolAutoscaler
        from repro.sim.engine import Engine

        from tests.controlplane.conftest import build_shard

        engine = Engine()
        shard = build_shard(engine, 0)
        host = shard.cluster.hosts[0]
        scaler = PoolAutoscaler(
            host,
            "firewall",
            expected_busy_ns=seconds(1),
            config=AutoscalerConfig(
                window_ns=seconds(10), period_ns=seconds(2),
                min_pool=1, max_pool=8,
            ),
        )
        scaler.start()
        for _ in range(20):
            scaler.observe_trigger()
        engine.schedule_at(seconds(3), lambda: shard.crash(engine.now))
        engine.schedule_at(seconds(4), lambda: shard.recover(engine.now))
        engine.run(until=seconds(5))
        assert shard.epoch == 1
        # ticks at 2 s and 4 s ran, across the crash and the recovery
        assert autoscale_ticks(engine, "firewall") == [seconds(6)]
        assert scaler.current_target == 3  # window survived the epoch bump
        engine.run(until=seconds(9))
        assert autoscale_ticks(engine, "firewall") == [seconds(10)]
        # Post-recovery traffic routed through the NEW incarnation still
        # lands on the same data plane the autoscaler provisioned.
        shard.submit("firewall", origin=123)
        scaler.stop()
        engine.run(until=seconds(30))
        assert shard.log.outcome_of(123).state == "completed"
