"""Fired, skipped, cancelled and closed-over events keep no callback alive.

A handle the caller holds after its event has fired (an invocation's
completion event, a pool's eviction timer) must pin only the slotted
``Event``, never the closure and what the closure captured.  Every
dispatch loop honours this: the no-watcher drain, the watcher path and
the profiled path.  :meth:`Engine.close` extends the rule to events
still pending when a run ends.
"""

import gc
import weakref

import pytest

from repro.obs.context import activate
from repro.obs.profile import SubsystemProfiler
from repro.sim.engine import Engine
from repro.sim.errors import EngineClosedError

DISPATCH = ("drain", "watcher", "profiled")


class _Payload:
    """Something only a closure refers to."""


def _closure(payload):
    return lambda: payload


def _engine(dispatch):
    if dispatch == "profiled":
        with activate(profiler=SubsystemProfiler()):
            return Engine()
    engine = Engine()
    if dispatch == "watcher":
        engine.add_watcher(lambda event: None)
    return engine


@pytest.mark.parametrize("dispatch", DISPATCH)
class TestEventsDropCallbacks:
    def test_fired_event_and_transient_drop_callback(self, dispatch):
        engine = _engine(dispatch)
        fired = engine.schedule_at(10, lambda: None)
        transient = engine.schedule_at(20, lambda: None, transient=True)
        engine.run()
        assert engine.events_executed == 2
        assert fired.callback is None
        assert transient.callback is None

    def test_cancelled_event_drops_callback_at_once(self, dispatch):
        engine = _engine(dispatch)
        calls = []
        doomed = engine.schedule_at(10, lambda: calls.append("doomed"))
        doomed.cancel()
        assert doomed.callback is None
        engine.run()
        assert calls == [] and engine.events_executed == 0

    def test_skipped_event_drops_callback(self, dispatch):
        # Flagged without cancel(): the dispatch loop's skip branch is
        # what must let the closure go.
        engine = _engine(dispatch)
        skipped = engine.schedule_at(10, lambda: None)
        skipped_transient = engine.schedule_at(10, lambda: None, transient=True)
        skipped.cancelled = skipped_transient.cancelled = True
        engine.run()
        assert engine.events_executed == 0
        assert skipped.callback is None
        assert skipped_transient.callback is None

    def test_fired_closure_capture_is_released(self, dispatch):
        engine = _engine(dispatch)
        payload = _Payload()
        alive = weakref.ref(payload)
        handle = engine.schedule_at(10, _closure(payload))
        del payload
        assert alive() is not None  # only the pending closure holds it
        engine.run()
        assert handle.callback is None
        assert alive() is None


class _Owner:
    """Holds the engine and arms a timer that captures itself: the
    shape of a pool whose keep-alive event outlives the run."""

    def __init__(self, engine):
        self.engine = engine
        self.timer = engine.schedule_at(10**12, lambda: self.fire())

    def fire(self):
        pass


class TestEngineClose:
    def test_close_drops_every_pending_callback(self):
        engine = Engine()
        payload = _Payload()
        alive = weakref.ref(payload)
        held = engine.schedule_at(10, _closure(payload))
        transient = engine.schedule_at(20, _closure(payload), transient=True)
        far = engine.schedule_at(10**15, _closure(payload))
        engine.schedule_at(30, lambda: None).cancel()
        del payload
        engine.run(until=5)
        assert alive() is not None  # the pending closures hold it
        engine.close()
        assert held.callback is None
        assert transient.callback is None
        assert far.callback is None
        assert alive() is None
        assert engine.pending_events() == []
        assert engine.events_executed == 0

    def test_close_after_a_run_leaves_the_clock(self):
        engine = Engine()
        fired = []
        engine.schedule_at(10, lambda: fired.append(engine.now))
        engine.schedule_at(50, lambda: fired.append(engine.now))
        engine.run(until=20)
        engine.close()
        assert fired == [10]
        assert engine.now == 20 and engine.events_executed == 1

    def test_schedule_and_run_raise_after_close(self):
        engine = Engine()
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.schedule_at(10, lambda: None)
        with pytest.raises(EngineClosedError):
            engine.schedule_after(10, lambda: None, transient=True)
        with pytest.raises(EngineClosedError):
            engine.run()
        with pytest.raises(EngineClosedError):
            engine.run(until=100)

    def test_close_is_idempotent(self):
        engine = Engine()
        engine.schedule_at(10, lambda: None)
        engine.close()
        engine.close()
        assert engine.pending_events() == []

    def test_closed_owner_is_freed_without_the_cyclic_collector(self):
        # Owner -> engine -> heap -> timer -> closure -> owner is a
        # cycle while the timer is pending; close() cuts it, so
        # reference counting alone frees the owner and its engine.
        gc.collect()
        gc.disable()
        try:
            owner = _Owner(Engine())
            owner_alive = weakref.ref(owner)
            engine_alive = weakref.ref(owner.engine)
            owner.engine.close()
            assert owner.timer.callback is None
            del owner
            assert owner_alive() is None
            assert engine_alive() is None
        finally:
            gc.enable()

    def test_unclosed_owner_needs_the_cyclic_collector(self):
        # The control: without close() the same graph survives
        # reference counting.
        gc.collect()
        gc.disable()
        try:
            owner = _Owner(Engine())
            owner_alive = weakref.ref(owner)
            del owner
            assert owner_alive() is not None
            gc.collect()
            assert owner_alive() is None
        finally:
            gc.enable()
