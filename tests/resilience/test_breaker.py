"""Circuit breaker state machine."""

import pytest

from repro.resilience.breaker import (
    LEGAL_TRANSITIONS,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)
from repro.sim.units import milliseconds


def make_breaker(threshold=3, open_ns=milliseconds(1)):
    return CircuitBreaker(
        BreakerConfig(failure_threshold=threshold, open_ns=open_ns), name="h0"
    )


class TestConfig:
    def test_zero_threshold_rejected(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)

    def test_negative_open_rejected(self):
        with pytest.raises(ValueError):
            BreakerConfig(open_ns=-1)


class TestClosedToOpen:
    def test_starts_closed_and_allowing(self):
        breaker = make_breaker()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0)

    def test_trips_at_threshold(self):
        breaker = make_breaker(threshold=3)
        breaker.record_failure(10)
        breaker.record_failure(20)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(30)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(31)

    def test_success_resets_consecutive_count(self):
        breaker = make_breaker(threshold=2)
        breaker.record_failure(10)
        breaker.record_success(20)
        breaker.record_failure(30)
        assert breaker.state is BreakerState.CLOSED

    def test_open_records_timestamp(self):
        breaker = make_breaker(threshold=1)
        breaker.record_failure(42)
        assert breaker.opened_at_ns == 42


class TestHalfOpen:
    def test_reopens_lazily_after_interval(self):
        breaker = make_breaker(threshold=1, open_ns=100)
        breaker.record_failure(0)
        assert not breaker.allow(99)
        assert breaker.allow(100)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_budget_enforced(self):
        breaker = make_breaker(threshold=1, open_ns=100)
        breaker.record_failure(0)
        assert breaker.allow(100)
        breaker.on_attempt(100)
        assert not breaker.allow(101)  # one probe already out

    def test_probe_success_closes(self):
        breaker = make_breaker(threshold=1, open_ns=100)
        breaker.record_failure(0)
        breaker.allow(100)
        breaker.on_attempt(100)
        breaker.record_success(150)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(151)

    def test_probe_failure_reopens(self):
        breaker = make_breaker(threshold=1, open_ns=100)
        breaker.record_failure(0)
        breaker.allow(100)
        breaker.on_attempt(100)
        breaker.record_failure(150)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_at_ns == 150
        assert not breaker.allow(200)
        assert breaker.allow(250)  # 150 + 100


class TestAudit:
    def test_transitions_recorded_and_legal(self):
        breaker = make_breaker(threshold=1, open_ns=100)
        breaker.record_failure(0)
        breaker.allow(100)
        breaker.on_attempt(100)
        breaker.record_success(150)
        edges = [(t.source, t.target) for t in breaker.transitions]
        assert edges == [
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        ]
        assert all(edge in LEGAL_TRANSITIONS for edge in edges)
        assert breaker.invariant_violations() == []

    def test_open_count(self):
        breaker = make_breaker(threshold=1, open_ns=100)
        breaker.record_failure(0)
        breaker.allow(100)
        breaker.on_attempt(100)
        breaker.record_failure(150)
        assert breaker.open_count == 2

    def test_illegal_edge_reported(self):
        breaker = make_breaker()
        breaker._transition(BreakerState.HALF_OPEN, 5, "forged")
        problems = breaker.invariant_violations()
        assert any("illegal transition" in message for message in problems)

    def test_state_desync_reported(self):
        breaker = make_breaker(threshold=1)
        breaker.record_failure(0)
        breaker.state = BreakerState.CLOSED  # corrupt live state
        problems = breaker.invariant_violations()
        assert any("live state" in message for message in problems)

    def test_non_monotone_timestamps_reported(self):
        breaker = make_breaker(threshold=1, open_ns=0)
        breaker.record_failure(100)
        breaker.allow(100)
        breaker.on_attempt(100)
        breaker.record_success(50)  # goes backwards
        problems = breaker.invariant_violations()
        assert any("monotone" in message for message in problems)


class TestMemoryLayout:
    """S1: breakers sit on the per-request hot path — one per host per
    gateway incarnation — so they must stay ``__slots__``-only, like
    Request/Attempt already are."""

    def test_breaker_objects_have_no_dict(self):
        breaker = make_breaker()
        assert not hasattr(breaker, "__dict__")
        assert not hasattr(breaker.config, "__dict__")
        with pytest.raises(AttributeError):
            breaker.accidental_new_attribute = 1

    def test_transition_records_are_slotted(self):
        breaker = make_breaker(threshold=1)
        breaker.record_failure(0)
        transition = breaker.transitions[0]
        assert not hasattr(transition, "__dict__")

    def test_allocation_count_stays_flat_across_churn(self):
        """Driving the full CLOSED→OPEN→HALF_OPEN→CLOSED cycle many
        times must allocate only the audit records, never per-call
        garbage that would show up as dict churn."""
        import tracemalloc

        breaker = make_breaker(threshold=1, open_ns=1)
        now = 0

        def cycle(now):
            breaker.record_failure(now)          # -> OPEN
            now += 2
            breaker.allow(now)                   # -> HALF_OPEN (lazy)
            breaker.on_attempt(now)
            breaker.record_success(now)          # -> CLOSED
            return now + 2

        for _ in range(10):                      # warm up interned state
            now = cycle(now)
        baseline_transitions = len(breaker.transitions)
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(100):
            now = cycle(now)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        grew = sum(
            s.count_diff for s in after.compare_to(before, "lineno")
            if s.count_diff > 0
        )
        transitions_added = len(breaker.transitions) - baseline_transitions
        assert transitions_added == 300          # 3 edges per cycle
        # Each cycle allocates its 3 audit records plus their boxed
        # timestamps; an extra __dict__ per record (what dropping
        # __slots__ would cost) adds another block per object and blows
        # past this envelope.
        assert grew <= transitions_added * 2 + 20
