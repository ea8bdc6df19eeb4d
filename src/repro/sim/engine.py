"""The discrete-event simulation engine.

Callers schedule callbacks at future simulated instants;
:meth:`Engine.run` pops events in time order, advances the clock, and
invokes them.  All higher layers (hypervisor, FaaS platform,
experiments) are built on this single primitive.

The pending-event set is one binary heap of ``(time, priority,
sequence, event)`` tuples.  Sequence numbers are unique per engine, so
every sift decides on the three ints — compared in C — and never
reaches the event object.  DESIGN.md §10 records why one heap: no
registry experiment holds more than about 1,500 pending events, so a
pop costs about ten C-level tuple comparisons.

Hot-path design (see DESIGN.md §10): events are ``__slots__`` objects
that drop their callback once fired or skipped, so a held handle never
keeps a closure alive; events whose handles the call site discards
(process sleeps, wake-ups) are marked *transient* and recycled through
a free-list instead of being reallocated; and :meth:`Engine.run` keeps
a no-watcher dispatch loop whose per-event work is one heap pop, one
clock store, and the callback itself.

Determinism contract: given the same schedule calls in the same order
and the same seeded RNG streams, a run is bit-for-bit reproducible.
Nothing in the engine consults wall-clock time or unseeded randomness.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional

from repro.obs.context import current_run
from repro.sim.clock import SimClock
from repro.sim.errors import EngineClosedError, SchedulingInPastError
from repro.sim.event import Event, EventPriority

#: Upper bound on pooled Event objects per engine.  Beyond this the
#: free-list stops growing and surplus events fall to the allocator.
_POOL_CAP = 4096

#: Plain-int default for schedule_* priorities.  EventPriority is an
#: IntEnum; using the member itself as the default would make every
#: default-priority call pay an ``int()`` conversion in schedule_at.
_PRIORITY_NORMAL = int(EventPriority.NORMAL)


def _refuse(_heap: list, _entry: tuple) -> None:
    """The push of a closed engine (a plain function: a bound method
    stored on the engine would be a cycle)."""
    raise EngineClosedError("cannot schedule on a closed engine")


def default_scheduler() -> str:
    """The engine's pending-event structure: always the binary heap."""
    return "heap"


class Engine:
    """Discrete-event simulation engine over one binary heap."""

    def __init__(self, start_time: int = 0) -> None:
        self.clock = SimClock(start_time)
        #: ``(time, priority, sequence, event)`` entries, cancelled
        #: events included until they are popped and skipped.
        self._heap: List[tuple] = []
        #: ``heappush``, or :func:`_refuse` once the engine is closed.
        self._push = heappush
        self._sequence = 0
        self._events_executed = 0
        self._pool: List[Event] = []
        #: callbacks invoked as f(event) after each executed event —
        #: how the repro.check invariant registry observes every step.
        self._watchers: list[Callable[[Event], None]] = []
        # Under a run context holding a profiler, dispatch goes through
        # the profiled drain (else one None check per run() call); one
        # holding an invariant registry watches this engine's events.
        run = current_run()
        self._profiler = run.profiler
        if run.invariants is not None:
            run.invariants.watch_engine(self)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time (ns)."""
        return self.clock._now

    @property
    def events_executed(self) -> int:
        """Number of events the engine has fired so far."""
        return self._events_executed

    def schedule_at(
        self,
        when: int,
        callback: Callable[[], None],
        priority: int = _PRIORITY_NORMAL,
        label: str = "",
        transient: bool = False,
    ) -> Event:
        """Schedule *callback* at absolute simulated time *when*.

        ``transient=True`` is a promise that the caller discards the
        returned handle: the engine may then recycle the Event object
        through its free-list after the event fires or is skipped.
        Never retain (or cancel) a transient event past its instant.
        """
        if when < self.clock._now:
            raise SchedulingInPastError(
                f"cannot schedule at {when}, now is {self.clock._now}"
            )
        if type(priority) is not int:
            priority = int(priority)
        sequence = self._sequence
        self._sequence = sequence + 1
        if transient and self._pool:
            event = self._pool.pop()
            event.time = when
            event.priority = priority
            event.sequence = sequence
            event.callback = callback
            event.cancelled = False
            event.label = label
            event.generation += 1
        else:
            # Positional: a keyword call costs about twice as much, and
            # this runs once per non-recycled event.
            event = Event(
                when, priority, sequence, callback, False, label, transient
            )
        self._push(self._heap, (when, priority, sequence, event))
        return event

    def schedule_after(
        self,
        delay: int,
        callback: Callable[[], None],
        priority: int = _PRIORITY_NORMAL,
        label: str = "",
        transient: bool = False,
    ) -> Event:
        """Schedule *callback* after *delay* nanoseconds from now."""
        if delay < 0:
            raise SchedulingInPastError(f"negative delay {delay}")
        return self.schedule_at(
            self.clock._now + delay, callback, priority, label, transient
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or *until* is reached.
        Returns the number of events executed by this call.

        When *until* is given, the clock is left exactly at *until* even
        if the queue drains earlier, so back-to-back ``run(until=...)``
        calls tile time contiguously.
        """
        if self._push is _refuse:
            raise EngineClosedError("cannot run a closed engine")
        clock = self.clock
        if self._profiler is not None:
            executed = self._run_profiled(until, self._profiler)
        elif not self._watchers:
            executed = self._drain(until)
        else:
            executed = 0
            while True:
                event = self._pop_due(until)
                if event is None:
                    break
                if event.cancelled:
                    self._recycle(event)
                    continue
                clock.advance_to(event.time)
                callback = event.callback
                event.callback = None
                callback()
                executed += 1
                self._events_executed += 1
                for watcher in self._watchers:
                    watcher(event)
                self._recycle(event)
        if until is not None and clock._now < until:
            clock.advance_to(until)
        return executed

    def _drain(self, until: Optional[int]) -> int:
        """The no-watcher dispatch loop: pop due events, advance the
        clock, fire callbacks (each event drops its callback as it
        leaves the heap), and recycle transient events into the
        free-list.  Pop order is monotone, so the clock store needs no
        backwards check.  The lifetime counter is updated even when a
        callback raises.
        """
        heap = self._heap
        clock = self.clock
        pool = self._pool
        pop = heappop
        executed = 0
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                time, _, _, event = pop(heap)
                callback = event.callback
                event.callback = None
                if event.cancelled:
                    if event.transient and len(pool) < _POOL_CAP:
                        pool.append(event)
                    continue
                clock._now = time
                callback()
                executed += 1
                if event.transient and len(pool) < _POOL_CAP:
                    pool.append(event)
        finally:
            self._events_executed += executed
        return executed

    def _pop_due(self, until: Optional[int]) -> Optional[Event]:
        """Pop the earliest event if it is due by *until* (no limit when
        None); otherwise leave it queued and return None."""
        heap = self._heap
        if not heap or (until is not None and heap[0][0] > until):
            return None
        return heappop(heap)[3]

    def _run_profiled(self, until: Optional[int], profiler) -> int:
        """Dispatch loop with per-event subsystem attribution.

        Mirrors the watcher-capable loop (never the inlined drain) so
        every event passes through one place where its label,
        simulated interval, and callback wall time can be recorded.
        Sample counts and sim-ns are deterministic; wall-ns is measured
        but kept out of the deterministic artifacts.
        """
        import time as _time

        executed = 0
        clock = self.clock
        pop_due = self._pop_due
        watchers = self._watchers
        record = profiler.record
        perf = _time.perf_counter_ns
        last_sim = clock._now
        # A collection that strikes inside a pop or a callback is the
        # collector's time, not theirs: profiler.gc_wall_ns grows by it.
        while True:
            gc_before = profiler.gc_wall_ns
            t0 = perf()
            event = pop_due(until)
            profiler.scheduler_wall_ns += (
                perf() - t0 - (profiler.gc_wall_ns - gc_before)
            )
            if event is None:
                break
            if event.cancelled:
                profiler.record_cancelled()
                self._recycle(event)
                continue
            when = event.time
            clock.advance_to(when)
            label = event.label
            callback = event.callback
            event.callback = None
            gc_before = profiler.gc_wall_ns
            t0 = perf()
            callback()
            wall = perf() - t0 - (profiler.gc_wall_ns - gc_before)
            executed += 1
            self._events_executed += 1
            record(label, when - last_sim, wall)
            last_sim = when
            if watchers:
                t0 = perf()
                for watcher in watchers:
                    watcher(event)
                profiler.watcher_wall_ns += perf() - t0
            self._recycle(event)
        return executed

    def _recycle(self, event: Event) -> None:
        """Drop a fired/skipped event's callback; pool it if transient."""
        event.callback = None
        if event.transient and len(self._pool) < _POOL_CAP:
            self._pool.append(event)

    def close(self) -> None:
        """End the engine's life: drop every pending callback, refuse
        any later work.

        Events still pending when a run stops (keep-alive evictions
        armed far past the drain horizon, timers nobody cancelled) hold
        callbacks that reach objects which hold this engine, and
        handles to them sit in those objects too.  Dropping the
        callbacks, the free-list and the watchers leaves the finished
        object graph without cycles through the engine, so reference
        counting frees it when the caller lets go.  Every later
        ``schedule_*`` or :meth:`run` raises
        :class:`~repro.sim.errors.EngineClosedError`.  Idempotent.
        """
        for entry in self._heap:
            entry[3].callback = None
        self._heap.clear()
        self._push = _refuse
        self._pool.clear()
        self._watchers.clear()

    def next_time(self) -> Optional[int]:
        """Time of the earliest queued event, cancelled ones included,
        or None when nothing is queued.  O(1): the heap's root."""
        heap = self._heap
        return heap[0][0] if heap else None

    def pending_events(self) -> List[Event]:
        """Sorted snapshot of non-cancelled pending events.

        The snapshot is ordered by the firing order ``(time, priority,
        sequence)`` — callers (invariant checkers, tests, debuggers)
        see the exact sequence the engine would drain, never the raw
        heap layout.  Mutating the returned list does not affect the
        engine.

        Sequence numbers are engine-local, so this ordering is only
        meaningful *within* one engine.  For a merged view across the
        per-shard engines of a sharded run, use
        :func:`repro.sim.sharding.merged_pending`, which pins the
        cross-shard tie-break at equal ``(time, priority)`` to the
        shard id (then the per-shard sequence) — comparing raw
        sequences across engines would be arbitrary.
        """
        return [
            entry[3] for entry in sorted(self._heap) if not entry[3].cancelled
        ]

    def add_watcher(self, watcher: Callable[[Event], None]) -> None:
        """Call *watcher(event)* after every executed event.

        Watchers must not schedule or mutate simulation state; they
        exist for cross-cutting observation (invariant checking, test
        assertions).  An idle engine pays nothing for an empty list —
        the no-watcher dispatch branch never consults it.
        """
        self._watchers.append(watcher)

    def __repr__(self) -> str:
        return (
            f"Engine(now={self.clock.now}, pending={len(self._heap)}, "
            f"executed={self._events_executed})"
        )
