"""The engine's one event queue: firing order and the transient pool.

The engine keeps pending events in one binary heap keyed by ``(time,
priority, sequence)``.  A property test drives it with random
schedules — same-instant ties, events scheduled from inside callbacks,
lazy cancellation, recycled transients, ``run(until=...)`` splits —
through each dispatch loop, and requires the firing order to be
exactly ``sorted()`` of every scheduled, uncancelled key.  Seeded
differential tests check the same against a reference sort for a heap
grown to thousands of events and for clustered-then-sparse times.  A
last group pins the transient-event pool: a cancelled transient's
callback must never fire after recycling.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.context import activate
from repro.obs.profile import SubsystemProfiler
from repro.sim.engine import Engine, default_scheduler
from repro.sim.event import EventPriority

PRIORITIES = st.sampled_from(list(EventPriority))

#: (time, priority, transient, cancel before the run)
INITIAL = st.tuples(
    st.integers(min_value=0, max_value=60), PRIORITIES, st.booleans(),
    st.booleans(),
)

#: what one fired event does: (delay of the event it schedules — zero
#: for a same-instant hop —, its priority, transient, which still
#: pending handle to cancel; an index past the end cancels none)
STEP = st.tuples(
    st.sampled_from((0, 0, 1, 7, 50)), PRIORITIES, st.booleans(),
    st.integers(min_value=0, max_value=6),
)


def _engine(dispatch):
    if dispatch == "profiled":
        with activate(profiler=SubsystemProfiler()):
            return Engine()
    engine = Engine()
    if dispatch == "watcher":
        engine.add_watcher(lambda event: None)
    return engine


class _Script:
    """Schedules, fires and cancels events, recording every key."""

    def __init__(self, engine, steps):
        self.engine = engine
        self.steps = iter(steps)
        self.scheduled = []
        self.cancelled = set()
        self.fired = []
        #: (key, handle) of every non-transient event: a transient's
        #: handle may not be kept, so only these can be cancelled.
        self.held = []

    def schedule(self, when, priority, transient):
        cell = []
        event = self.engine.schedule_at(
            when, lambda: self.fire(cell[0]), priority, transient=transient
        )
        key = (event.time, event.priority, event.sequence)
        cell.append(key)
        self.scheduled.append(key)
        if not transient:
            self.held.append((key, event))

    def cancel(self, key, event):
        event.cancel()
        self.cancelled.add(key)

    def fire(self, key):
        assert self.engine.now == key[0]
        self.fired.append(key)
        step = next(self.steps, None)
        if step is None:
            return
        delay, priority, transient, cancel = step
        if delay == 0:
            # A same-instant child may not outrank its parent, or it
            # would precede the parent in sorted() yet fire after it.
            priority = max(priority, key[1])
        self.schedule(key[0] + delay, priority, transient)
        pending = [
            entry for entry in self.held
            if entry[0] > key and entry[0] not in self.cancelled
        ]
        if cancel < len(pending):
            self.cancel(*pending[cancel])


@pytest.mark.parametrize("dispatch", ("drain", "watcher", "profiled"))
class TestFiringOrder:
    @given(
        initial=st.lists(INITIAL, min_size=1, max_size=40),
        steps=st.lists(STEP, max_size=80),
        split=st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
    )
    @settings(max_examples=60, deadline=None)
    def test_firing_order_is_sorted_keys_of_uncancelled_events(
        self, dispatch, initial, steps, split
    ):
        engine = _engine(dispatch)
        script = _Script(engine, steps)
        for when, priority, transient, cancelled in initial:
            script.schedule(when, priority, transient)
            if cancelled and not transient:
                script.cancel(*script.held[-1])
        if split is not None:
            engine.run(until=split)
            assert engine.now == split
        engine.run()
        expected = sorted(set(script.scheduled) - script.cancelled)
        assert script.fired == expected
        assert engine.events_executed == len(expected)
        assert engine.pending_events() == []


class TestDifferentialPopOrder:
    def test_identical_across_resize_pressure(self):
        # Thousands of pending events grow the heap list, then the drain
        # shrinks it; the trace must equal the reference sort.
        rng = random.Random(99)
        engine = Engine()
        trace = []
        expected = []
        for index in range(5000):
            when = rng.randrange(1_000_000)
            engine.schedule_at(when, lambda t=index: trace.append((engine.now, t)))
            expected.append((when, index))
        engine.run()
        assert trace == sorted(expected)
        assert engine.pending_events() == []

    def test_identical_with_clustered_then_sparse_times(self):
        # A dense cluster followed by far-future stragglers scheduled out
        # of order: the earliest straggler must fire first.
        engine = Engine()
        trace = []
        for index in range(64):
            engine.schedule_at(index, lambda t=index: trace.append((engine.now, t)))
        for index, when in enumerate((10**9, 5 * 10**9, 2 * 10**9)):
            engine.schedule_at(
                when, lambda t=f"far{index}": trace.append((engine.now, t))
            )
        engine.run()
        assert trace == [(index, index) for index in range(64)] + [
            (10**9, "far0"), (2 * 10**9, "far2"), (5 * 10**9, "far1"),
        ]

    @pytest.mark.parametrize("kind", [default_scheduler()])
    def test_raw_scheduler_pops_sorted(self, kind):
        """The queue ``default_scheduler()`` names pops pending events
        in ``(time, priority, sequence)`` order."""
        assert kind == "heap"
        rng = random.Random(3)
        engine = Engine()
        events = [
            engine.schedule_at(
                rng.randrange(100_000), lambda: None,
                rng.choice(tuple(EventPriority)),
            )
            for _ in range(1000)
        ]
        popped = []
        while True:
            event = engine._pop_due(None)
            if event is None:
                break
            popped.append(event)
        key = lambda event: (event.time, event.priority, event.sequence)
        assert [key(event) for event in popped] == sorted(map(key, events))
        assert sorted(map(id, popped)) == sorted(map(id, events))


class TestTransientPool:
    def test_cancelled_transient_callback_never_resurrects(self):
        """Recycling must not let a stale handle re-arm its old callback.

        Cancel transient events mid-run, then schedule enough new
        transients to cycle the pool; the cancelled callbacks must stay
        dead and every pooled reuse must bump the generation counter.
        """
        engine = Engine()
        fired = []
        poisoned = []

        def seed_events():
            stale = []
            for index in range(50):
                engine.schedule_after(
                    10 + index, lambda t=index: poisoned.append(t),
                    transient=True,
                )
            # Grab the pending transients and cancel every one of them.
            for event in engine.pending_events():
                if event.transient:
                    stale.append((event, event.generation))
                    event.cancel()
            # Recycle pressure: reuse pooled events for live callbacks.
            for index in range(200):
                engine.schedule_after(
                    20 + index, lambda t=index: fired.append(t), transient=True
                )
            for event, generation in stale:
                if not event.cancelled:  # reused for a live callback
                    assert event.generation > generation

        engine.schedule_at(0, seed_events)
        engine.run()
        assert poisoned == []
        assert sorted(fired) == list(range(200))

    def test_pool_reuse_bumps_generation(self):
        engine = Engine()
        holder = []
        engine.schedule_after(1, lambda: None, transient=True)
        engine.run()
        assert len(engine._pool) == 1
        recycled = engine._pool[-1]
        generation = recycled.generation
        engine.schedule_after(1, lambda: holder.append(True), transient=True)
        assert recycled.generation == generation + 1
        engine.run()
        assert holder == [True]

    def test_pool_capacity_is_bounded(self):
        engine = Engine()
        for index in range(6000):
            engine.schedule_after(index, lambda: None, transient=True)
        engine.run()
        assert len(engine._pool) <= 4096
