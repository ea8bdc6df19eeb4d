"""The discrete-event simulation engine.

Callers schedule callbacks at future simulated instants;
:meth:`Engine.run` pops events in time order, advances the clock, and
invokes them.  All higher layers (hypervisor, FaaS platform,
experiments) are built on this single primitive.

The pending-event set is pluggable (``Engine(scheduler="heap")`` or
``"calendar"`` — see :mod:`repro.sim.schedulers`): a binary heap, or a
calendar queue with amortized O(1) push/pop for throughput-bound runs.
Both drain events in the identical total order, so the choice never
changes results, only wall-clock.  The process-wide default comes from
:func:`set_default_scheduler` or the ``REPRO_SIM_SCHEDULER``
environment variable, and is the calendar queue: it drains the chaos
profile >2x faster than the heap (``BENCH_sim_kernel.json``) and the
cross-scheduler identity is CI-enforced, so the heap survives as the
reference implementation the calendar is diffed against.

Hot-path design (see DESIGN.md §10): events are ``__slots__`` objects
that drop their callback once fired or skipped, so a held handle never
keeps a closure alive; events whose handles the call site discards
(process sleeps, wake-ups) are marked *transient* and recycled through
a free-list instead of being reallocated; and :meth:`Engine.run` keeps
a no-watcher dispatch branch whose per-event work is one scheduler
pop, one clock store, and the callback itself.

Determinism contract: given the same schedule calls in the same order
and the same seeded RNG streams, a run is bit-for-bit reproducible —
whichever scheduler is selected.  Nothing in the engine consults
wall-clock time or unseeded randomness.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional

from repro.obs.context import current_run
from repro.sim.clock import SimClock
from repro.sim.errors import EngineClosedError, SchedulingInPastError
from repro.sim.event import Event, EventPriority
from repro.sim.schedulers import make_scheduler, scheduler_kinds

#: Upper bound on pooled Event objects per engine.  Beyond this the
#: free-list stops growing and surplus events fall to the allocator.
_POOL_CAP = 4096

_ENV_SCHEDULER = "REPRO_SIM_SCHEDULER"

#: Plain-int default for schedule_* priorities.  EventPriority is an
#: IntEnum; using the member itself as the default would make every
#: default-priority call pay an ``int()`` conversion in schedule_at.
_PRIORITY_NORMAL = int(EventPriority.NORMAL)

_default_scheduler = os.environ.get(_ENV_SCHEDULER, "").strip() or "calendar"
#: Why the environment's scheduler is unusable, or None.  The package
#: still imports (the ``repro`` CLI rejects the value with exit 2), but
#: the first Engine built without ``scheduler=`` raises this rather
#: than run on a default nobody asked for.
_env_problem: Optional[str] = None
if _default_scheduler not in scheduler_kinds():
    _env_problem = (
        f"{_ENV_SCHEDULER}: unknown scheduler {_default_scheduler!r}; "
        f"choose from {scheduler_kinds()}"
    )
    _default_scheduler = "calendar"


def _refuse(_event: Event) -> None:
    """The push of a closed engine, and the mark of one (a plain
    function: a bound method stored on the engine would be a cycle)."""
    raise EngineClosedError("cannot schedule on a closed engine")


def set_default_scheduler(kind: str) -> str:
    """Set the scheduler new :class:`Engine` instances use by default.

    Returns the previous default.  Engines built with an explicit
    ``scheduler=`` argument are unaffected.  An explicit default
    overrides a bad ``REPRO_SIM_SCHEDULER``.
    """
    global _default_scheduler, _env_problem
    if kind not in scheduler_kinds():
        raise ValueError(
            f"unknown scheduler {kind!r}; choose from {scheduler_kinds()}"
        )
    previous = _default_scheduler
    _default_scheduler = kind
    _env_problem = None
    return previous


def default_scheduler() -> str:
    """The scheduler kind new engines currently default to."""
    return _default_scheduler


class Engine:
    """Discrete-event simulation engine with pluggable schedulers."""

    def __init__(self, start_time: int = 0, scheduler: Optional[str] = None) -> None:
        if not scheduler:
            if _env_problem is not None:
                raise ValueError(_env_problem)
            scheduler = _default_scheduler
        self.clock = SimClock(start_time)
        self._sched = make_scheduler(scheduler)
        # Bound method cached once: the scheduler never changes after
        # construction and every schedule_* call pushes exactly once.
        self._push = self._sched.push
        self._sequence = 0
        self._events_executed = 0
        self._pool: List[Event] = []
        self._pool_cap = _POOL_CAP
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
        return self.clock.now

    @property
    def scheduler(self) -> str:
        """The scheduler kind this engine runs on ("heap"/"calendar")."""
        return self._sched.kind

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
            event = Event(
                time=when,
                priority=priority,
                sequence=sequence,
                callback=callback,
                label=label,
                transient=transient,
            )
        self._push(event)
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

    def schedule_transient_after(
        self,
        delay: int,
        callback: Callable[[], None],
        priority: int = 20,
        label: str = "",
    ) -> None:
        """Lean transient scheduling for fire-and-forget hops.

        Equivalent to ``schedule_after(..., transient=True)`` with the
        handle discarded, minus the per-call overhead that path pays:
        no Event returned, no enum coercion (*priority* must already be
        a plain int).  The engine bench behind the calendar/heap gate
        (:mod:`repro.perf.gate`) drives its event stream through here.
        """
        if delay < 0:
            raise SchedulingInPastError(f"negative delay {delay}")
        when = self.clock._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = when
            event.priority = priority
            event.sequence = sequence
            event.callback = callback
            event.cancelled = False
            event.label = label
            event.generation += 1
        else:
            event = Event(
                time=when,
                priority=priority,
                sequence=sequence,
                callback=callback,
                label=label,
                transient=True,
            )
        self._push(event)

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
            # Fast path: no observers.  Each scheduler ships its own
            # inlined dispatch loop.
            executed = self._sched.drain(self, until)
        else:
            executed = 0
            pop_due = self._sched.pop_due
            while True:
                event = pop_due(until)
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

    def _run_profiled(self, until: Optional[int], profiler) -> int:
        """Dispatch loop with per-event subsystem attribution.

        Mirrors the watcher-capable slow path (never the schedulers'
        inlined drains) so every event passes through one place where
        its label, simulated interval, and callback wall time can be
        recorded.  Sample counts and sim-ns are deterministic; wall-ns
        is measured but kept out of the deterministic artifacts.
        """
        import time as _time

        executed = 0
        clock = self.clock
        pop_due = self._sched.pop_due
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
        self._sched.close()
        self._push = _refuse
        self._pool.clear()
        self._watchers.clear()

    def pending_events(self) -> List[Event]:
        """Sorted snapshot of non-cancelled pending events.

        The snapshot is ordered by the firing order ``(time, priority,
        sequence)`` regardless of which scheduler backs the engine —
        callers (invariant checkers, tests, debuggers) see the exact
        sequence the engine would drain, never raw heap or bucket
        layout.  Mutating the returned list does not affect the engine.

        Sequence numbers are engine-local, so this ordering is only
        meaningful *within* one engine.  For a merged view across the
        per-shard engines of a sharded run, use
        :func:`repro.sim.sharding.merged_pending`, which pins the
        cross-shard tie-break at equal ``(time, priority)`` to the
        shard id (then the per-shard sequence) — comparing raw
        sequences across engines would be arbitrary.
        """
        return sorted(
            (event for event in self._sched.iter_pending() if not event.cancelled),
        )

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
            f"Engine(now={self.clock.now}, scheduler={self._sched.kind}, "
            f"pending={len(self._sched)}, executed={self._events_executed})"
        )
