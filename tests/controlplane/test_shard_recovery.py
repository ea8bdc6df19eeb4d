"""Gateway-shard crash/recovery: fencing, replay, conservative rebuild."""

import gc

import pytest

from repro.controlplane import intent_log_violations
from repro.resilience import BreakerState, RequestState
from repro.sim.units import milliseconds

from tests.controlplane.conftest import build_shard


class TestJournalling:
    def test_admit_launch_outcome_journaled(self, engine):
        shard = build_shard(engine, 0)
        shard.submit("firewall", priority=1, origin=42)
        engine.run()
        assert shard.log.admitted(42) is not None
        kinds = [r.kind for r in shard.log.records if r.origin == 42]
        assert kinds[0] == "admit" and kinds[-1] == "outcome"
        assert shard.log.outcome_of(42).state == "completed"
        assert intent_log_violations(shard, final=True) == []

    def test_fences_strictly_increase(self, engine):
        shard = build_shard(engine, 0)
        for origin in range(8):
            engine.schedule_at(
                origin * milliseconds(1),
                lambda o=origin: shard.submit("firewall", origin=o),
                label=f"sub{origin}",
            )
        engine.run()
        fences = [r.fence for r in shard.log.records if r.kind == "launch"]
        assert len(fences) >= 8
        assert fences == sorted(fences) and len(set(fences)) == len(fences)


class TestJournalOwnership:
    def test_every_incarnation_shares_the_journal_not_the_shard(self, engine):
        # The shard owns the journal and hands it to each incarnation;
        # the journal points at neither, so a fenced incarnation never
        # reaches back to the shard that replaced it.
        shard = build_shard(engine, 0)
        first = shard.gateway
        shard.crash(engine.now)
        shard.recover(engine.now)
        assert first.journal is shard.journal is shard.gateway.journal
        assert shard.log is shard.journal.log
        assert shard.epoch == shard.journal.epoch == 1
        referents = gc.get_referents(shard.journal)
        assert not any(
            ref is shard or ref is first or ref is shard.gateway
            for ref in referents
        )


class TestCrash:
    def test_crash_fences_the_live_incarnation(self, engine):
        shard = build_shard(engine, 0)
        old_gateway = shard.gateway
        assert shard.crash(engine.now) is True
        assert shard.down and old_gateway.fenced
        # Idempotent: a second crash of a down shard is a no-op.
        assert shard.crash(engine.now) is False
        assert shard.crashes == 1

    def test_stale_completion_is_dropped_not_applied(self, engine):
        shard = build_shard(engine, 0)
        # background runs for ~100 ms; crash mid-flight, recover, and
        # let the pre-crash attempt's completion land on the fenced
        # incarnation.
        shard.submit("background", origin=7)
        engine.schedule_at(
            milliseconds(1), lambda: shard.crash(engine.now), label="crash"
        )
        engine.schedule_at(
            milliseconds(5), lambda: shard.recover(engine.now), label="recover"
        )
        engine.run()
        assert shard.fenced_completions == 1
        assert shard.redispatched == 1
        assert shard.log.outcome_of(7).state == "completed"
        # Exactly one outcome for the origin despite two attempts.
        outcomes = [r for r in shard.log.records
                    if r.kind == "outcome" and r.origin == 7]
        assert len(outcomes) == 1
        assert intent_log_violations(shard, final=True) == []


class TestRecovery:
    def test_recovery_redispatches_open_admits_only(self, engine):
        shard = build_shard(engine, 0)
        shard.submit("firewall", origin=1)
        engine.run()                      # origin 1 resolves
        shard.submit("background", origin=2)   # stays in flight
        shard.crash(engine.now)
        count = shard.recover(engine.now)
        assert count == 1 and shard.redispatched == 1
        engine.run()
        assert shard.log.outcome_of(2).state == "completed"
        assert intent_log_violations(shard, final=True) == []

    def test_epoch_bumps_and_fence_counter_survives(self, engine):
        shard = build_shard(engine, 0)
        shard.submit("firewall", origin=1)
        engine.run()
        fences_before = max(
            r.fence for r in shard.log.records if r.kind == "launch"
        )
        shard.crash(engine.now)
        shard.recover(engine.now)
        assert shard.epoch == 1
        shard.submit("firewall", origin=2)
        engine.run()
        new_fences = [
            r.fence for r in shard.log.records
            if r.kind == "launch" and r.epoch == 1
        ]
        assert new_fences and min(new_fences) > fences_before

    def test_breakers_reopen_conservatively(self, engine):
        shard = build_shard(engine, 0)
        shard.submit("firewall", origin=1)
        engine.run()
        shard.crash(engine.now)
        shard.recover(engine.now)
        for breaker in shard.gateway.breakers.values():
            assert breaker.state is BreakerState.OPEN
        # Health rediscovery: half-open probes re-close the breakers
        # and traffic completes.
        shard.submit("firewall", origin=2)
        engine.run()
        assert shard.log.outcome_of(2).state == "completed"

    def test_recover_when_up_is_noop(self, engine):
        shard = build_shard(engine, 0)
        assert shard.recover(engine.now) == 0
        assert shard.epoch == 0 and shard.recoveries == 0

    def test_restored_request_keeps_original_submit_and_deadline(self, engine):
        shard = build_shard(engine, 0)
        shard.submit("background", origin=3)
        original = shard.gateway.requests[0]
        submit_ns, deadline_ns = original.submit_ns, original.deadline_ns
        engine.schedule_at(
            milliseconds(1), lambda: shard.crash(engine.now), label="crash"
        )
        engine.schedule_at(
            milliseconds(5), lambda: shard.recover(engine.now), label="recover"
        )
        engine.run()
        restored = shard.gateway.requests[0]
        assert restored.origin == 3
        assert restored.submit_ns == submit_ns
        assert restored.deadline_ns == deadline_ns
        assert restored.state is RequestState.COMPLETED
        # Latency in the log is measured from the ORIGINAL arrival.
        assert shard.log.outcome_of(3).latency_ns == (
            restored.completed_ns - submit_ns
        )

    def test_submit_to_down_shard_is_a_routing_bug(self, engine):
        shard = build_shard(engine, 0)
        shard.crash(engine.now)
        with pytest.raises(RuntimeError, match="down"):
            shard.submit("firewall", origin=1)
