"""Engine: event ordering, priorities, cancellation, run semantics."""

import pytest

from repro.sim.engine import Engine
from repro.sim.errors import SchedulingInPastError
from repro.sim.event import EventPriority


class TestScheduling:
    def test_schedule_at_runs_callback(self):
        engine = Engine()
        fired = []
        engine.schedule_at(10, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [10]

    def test_schedule_after_offsets_from_now(self):
        engine = Engine()
        fired = []
        engine.schedule_at(5, lambda: engine.schedule_after(7, lambda: fired.append(engine.now)))
        engine.run()
        assert fired == [12]

    def test_schedule_in_past_rejected(self):
        engine = Engine()
        engine.schedule_at(10, lambda: None)
        engine.run()
        with pytest.raises(SchedulingInPastError):
            engine.schedule_at(5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingInPastError):
            Engine().schedule_after(-1, lambda: None)

    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        for when in (30, 10, 20):
            engine.schedule_at(when, lambda when=when: order.append(when))
        engine.run()
        assert order == [10, 20, 30]

    def test_fifo_among_equal_time_and_priority(self):
        engine = Engine()
        order = []
        for tag in ("a", "b", "c"):
            engine.schedule_at(5, lambda tag=tag: order.append(tag))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        engine = Engine()
        order = []
        engine.schedule_at(5, lambda: order.append("normal"), EventPriority.NORMAL)
        engine.schedule_at(5, lambda: order.append("sched"), EventPriority.SCHEDULER)
        engine.schedule_at(5, lambda: order.append("irq"), EventPriority.INTERRUPT)
        engine.run()
        assert order == ["irq", "sched", "normal"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule_at(10, lambda: fired.append(1))
        event.cancel()
        engine.run()
        assert fired == []

    def test_cancel_does_not_disturb_others(self):
        engine = Engine()
        fired = []
        event = engine.schedule_at(10, lambda: fired.append("a"))
        engine.schedule_at(10, lambda: fired.append("b"))
        event.cancel()
        engine.run()
        assert fired == ["b"]


class TestRunSemantics:
    def test_run_until_stops_before_later_events(self):
        engine = Engine()
        fired = []
        engine.schedule_at(10, lambda: fired.append(10))
        engine.schedule_at(50, lambda: fired.append(50))
        engine.run(until=30)
        assert fired == [10]
        assert engine.now == 30

    def test_run_until_advances_clock_when_heap_drains(self):
        engine = Engine()
        engine.run(until=100)
        assert engine.now == 100

    def test_back_to_back_until_windows_tile(self):
        engine = Engine()
        fired = []
        engine.schedule_at(25, lambda: fired.append(25))
        engine.run(until=20)
        engine.run(until=40)
        assert fired == [25]
        assert engine.now == 40

    def test_event_at_until_boundary_fires(self):
        engine = Engine()
        fired = []
        engine.schedule_at(30, lambda: fired.append(30))
        engine.run(until=30)
        assert fired == [30]

    def test_run_returns_executed_count(self):
        engine = Engine()
        for when in range(5):
            engine.schedule_at(when, lambda: None)
        assert engine.run() == 5
        assert engine.events_executed == 5

    def test_events_scheduled_during_run_fire(self):
        engine = Engine()
        fired = []
        engine.schedule_at(
            1, lambda: engine.schedule_after(1, lambda: fired.append(engine.now))
        )
        engine.run()
        assert fired == [2]

    def test_pending_events_snapshot(self):
        engine = Engine()
        engine.schedule_at(1, lambda: None)
        event = engine.schedule_at(2, lambda: None)
        event.cancel()
        assert len(list(engine.pending_events())) == 1

    def test_next_time_is_the_heap_root_cancelled_included(self):
        engine = Engine()
        assert engine.next_time() is None
        engine.schedule_at(20, lambda: None)
        engine.schedule_at(5, lambda: None).cancel()
        assert engine.next_time() == 5
        engine.run(until=10)
        assert engine.next_time() == 20

    def test_pending_events_sorted_in_firing_order(self):
        # Contract: the snapshot is ordered by (time, priority, sequence)
        # — the exact drain order — and mutating it does not disturb
        # the engine.
        engine = Engine()
        for when in (30, 10, 20, 10, 30):
            engine.schedule_at(when, lambda: None)
        engine.schedule_at(10, lambda: None, EventPriority.INTERRUPT)
        snapshot = engine.pending_events()
        keys = [(e.time, e.priority, e.sequence) for e in snapshot]
        assert keys == sorted(keys)
        assert [e.time for e in snapshot] == [10, 10, 10, 20, 30, 30]
        assert snapshot[0].priority == EventPriority.INTERRUPT
        snapshot.clear()  # caller-owned copy
        assert len(engine.pending_events()) == 6


class TestDeterminism:
    def test_identical_schedules_produce_identical_traces(self):
        def run_once():
            engine = Engine()
            trace = []
            for when in (5, 3, 3, 8):
                engine.schedule_at(when, lambda when=when: trace.append((engine.now, when)))
            engine.run()
            return trace

        assert run_once() == run_once()
