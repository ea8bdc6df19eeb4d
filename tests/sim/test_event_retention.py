"""Fired, skipped and cancelled events keep no callback alive.

A handle the caller holds after its event has fired (an invocation's
completion event, a pool's eviction timer) must pin only the slotted
``Event``, never the closure and what the closure captured.  Every
dispatch loop honours this: the heap and calendar drains, the watcher
path and the profiled path.
"""

import weakref

import pytest

from repro.obs.profile import SubsystemProfiler, profiling
from repro.sim.engine import Engine
from repro.sim.schedulers import scheduler_kinds

DISPATCH = ("drain", "watcher", "profiled")


class _Payload:
    """Something only a closure refers to."""


def _closure(payload):
    return lambda: payload


def _engine(kind, dispatch):
    if dispatch == "profiled":
        with profiling(SubsystemProfiler()):
            return Engine(scheduler=kind)
    engine = Engine(scheduler=kind)
    if dispatch == "watcher":
        engine.add_watcher(lambda event: None)
    return engine


@pytest.mark.parametrize("dispatch", DISPATCH)
@pytest.mark.parametrize("kind", scheduler_kinds())
class TestEventsDropCallbacks:
    def test_fired_event_and_transient_drop_callback(self, kind, dispatch):
        engine = _engine(kind, dispatch)
        fired = engine.schedule_at(10, lambda: None)
        transient = engine.schedule_at(20, lambda: None, transient=True)
        engine.run()
        assert engine.events_executed == 2
        assert fired.callback is None
        assert transient.callback is None

    def test_cancelled_event_drops_callback_at_once(self, kind, dispatch):
        engine = _engine(kind, dispatch)
        calls = []
        doomed = engine.schedule_at(10, lambda: calls.append("doomed"))
        doomed.cancel()
        assert doomed.callback is None
        engine.run()
        assert calls == [] and engine.events_executed == 0

    def test_skipped_event_drops_callback(self, kind, dispatch):
        # Flagged without cancel(): the dispatch loop's skip branch is
        # what must let the closure go.
        engine = _engine(kind, dispatch)
        skipped = engine.schedule_at(10, lambda: None)
        skipped_transient = engine.schedule_at(10, lambda: None, transient=True)
        skipped.cancelled = skipped_transient.cancelled = True
        engine.run()
        assert engine.events_executed == 0
        assert skipped.callback is None
        assert skipped_transient.callback is None

    def test_fired_closure_capture_is_released(self, kind, dispatch):
        engine = _engine(kind, dispatch)
        payload = _Payload()
        alive = weakref.ref(payload)
        handle = engine.schedule_at(10, _closure(payload))
        del payload
        assert alive() is not None  # only the pending closure holds it
        engine.run()
        assert handle.callback is None
        assert alive() is None
