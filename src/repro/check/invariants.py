"""The invariant registry: pluggable, trigger-scheduled checkers.

A *checker* is a callable ``f(now_ns) -> list[str]`` returning the
invariant violations it currently observes (empty list = all sound).
Components register checkers with the :class:`InvariantRegistry` at
build time under one of three triggers:

* ``EVERY_EVENT`` — run after every simulation event (via
  :meth:`~repro.sim.engine.Engine.add_watcher`);
* ``EVERY_N_EVENTS`` — run every *n*-th event;
* ``BOUNDARY`` — run only at pause/resume boundaries, where the
  :class:`~repro.check.harness.CheckHarness` calls
  :meth:`InvariantRegistry.run_boundary`.

Checkers never raise on corruption — they *report*.  Every reported
violation is recorded as a :class:`Violation` carrying the ``repro.obs``
span context it occurred under (the innermost open span, e.g. the
harness's per-cycle span) and mirrored into the active observability
bundle as a ``check.violation`` instant plus a ``check.violations``
counter, so traces show exactly where a run went wrong.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.hypervisor.dvfs import sample_violations
from repro.obs.context import Observability, current as current_obs
from repro.sim.engine import Engine

#: A checker inspects the system at *now_ns* and reports problems.
Checker = Callable[[int], List[str]]


class Trigger(enum.Enum):
    """When a registered checker runs."""

    EVERY_EVENT = "every-event"
    EVERY_N_EVENTS = "every-n-events"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class Violation:
    """One reported invariant/oracle violation, with span context."""

    checker: str
    message: str
    now_ns: int
    context: str = ""
    span_name: Optional[str] = None
    span_id: Optional[int] = None

    def render(self) -> str:
        where = f" [{self.context}]" if self.context else ""
        span = (
            f" (span {self.span_name}#{self.span_id})"
            if self.span_id is not None
            else ""
        )
        return f"{self.checker}{where}{span}: {self.message}"


@dataclass
class _Entry:
    name: str
    checker: Checker
    trigger: Trigger
    every_n: int = 1


class InvariantRegistry:
    """Registered checkers plus the violations they have reported."""

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self.obs = obs if obs is not None else current_obs()
        self._entries: List[_Entry] = []
        #: Entries with a per-event trigger, cached so the engine
        #: watcher does not re-filter (and re-test the trigger kind of)
        #: every entry on every simulation event.  Invalidated by
        #: :meth:`register`.
        self._per_event: Optional[List[_Entry]] = None
        self._event_count = 0
        self.violations: List[Violation] = []
        #: what a run context registered (see watch_engine)
        self.engines = self.hosts = self.pools = 0
        #: the per-event entries of the engine watched last
        self._stack: Optional[List[_Entry]] = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        checker: Checker,
        trigger: Trigger = Trigger.BOUNDARY,
        every_n: int = 1,
    ) -> None:
        """Register *checker* under *name* to run at *trigger* time."""
        if every_n < 1:
            raise ValueError(f"every_n must be >= 1, got {every_n}")
        self._entries.append(_Entry(name, checker, trigger, every_n))
        self._per_event = None

    # Components built under a run context (repro.obs.context.activate)
    def watch_engine(self, engine: Engine) -> None:
        """Check *engine*, and the hosts and pools watched after it (a
        stack builds its engine first), after each of its events.
        Every :meth:`run_boundary` sweep checks them all, which is all
        a host built with no engine gets."""
        self.engines += 1
        self._stack = []
        self._watch("invariant.event_heap", event_heap_checker(engine))
        self.attach(engine, f"engine{self.engines}", self._stack)

    def watch_host(self, host) -> None:
        self.hosts += 1
        self._watch("invariant.runqueue", runqueue_checker(host))

    def watch_pool(self, pool) -> None:
        self.pools += 1
        self._watch("invariant.pool", pool_checker(pool))

    def _watch(self, name: str, checker: Checker) -> None:
        entry = _Entry(name, checker, Trigger.BOUNDARY)
        self._entries.append(entry)
        if self._stack is not None:
            self._stack.append(entry)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_boundary(self, now_ns: int, context: str = "") -> List[Violation]:
        """Run every checker (any trigger) at a pause/resume boundary.

        Boundary runs are the full sweep: a checker scheduled per-event
        still has something to say at a lifecycle edge.
        """
        found: List[Violation] = []
        for entry in self._entries:
            found.extend(
                self.report(entry.name, entry.checker(now_ns), now_ns, context)
            )
        return found

    def _per_event_entries(self) -> List[_Entry]:
        entries = self._per_event
        if entries is None:
            entries = self._per_event = [
                entry
                for entry in self._entries
                if entry.trigger is not Trigger.BOUNDARY
            ]
        return entries

    def attach(
        self, engine: Engine, context: str = "", stack: Sequence[_Entry] = ()
    ) -> None:
        """Install an engine watcher honoring the per-event triggers,
        which also runs every entry of *stack* on every event."""

        def watch(_event) -> None:
            self._event_count += 1
            now = engine.now
            for entry in stack:
                self.report(entry.name, entry.checker(now), now, context)
            entries = self._per_event
            if entries is None:
                entries = self._per_event_entries()
            for entry in entries:
                if (
                    entry.trigger is Trigger.EVERY_EVENT
                    or self._event_count % entry.every_n == 0
                ):
                    self.report(entry.name, entry.checker(now), now, context)

        engine.add_watcher(watch)

    # ------------------------------------------------------------------
    # Reporting (shared with the oracles and the fault harness)
    # ------------------------------------------------------------------
    def report(
        self,
        checker: str,
        messages: Iterable[str],
        now_ns: int,
        context: str = "",
    ) -> List[Violation]:
        """Turn raw messages into recorded violations with span context."""
        recorded: List[Violation] = []
        current = self.obs.tracer.current_span()
        for message in messages:
            violation = Violation(
                checker=checker,
                message=message,
                now_ns=now_ns,
                context=context,
                span_name=current.name if current is not None else None,
                span_id=current.span_id if current is not None else None,
            )
            recorded.append(violation)
            self.violations.append(violation)
            if self.obs.enabled:
                self.obs.metrics.counter(
                    "check.violations", "invariant/oracle violations"
                ).inc()
                self.obs.tracer.record_instant(
                    "check.violation",
                    now_ns,
                    category="check",
                    checker=checker,
                    message=message,
                    context=context,
                )
        return recorded

    @property
    def events_seen(self) -> int:
        """Engine events observed through :meth:`attach` watchers."""
        return self._event_count

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        return (
            f"InvariantRegistry({len(self._entries)} checkers, "
            f"{len(self.violations)} violations)"
        )


# ----------------------------------------------------------------------
# Built-in checker factories
# ----------------------------------------------------------------------
def runqueue_checker(host) -> Checker:
    """Sortedness, size, link integrity, and load sign of every built
    queue (an unbuilt queue is empty at zero load: nothing to break)."""

    def check(_now_ns: int) -> List[str]:
        problems: List[str] = []
        for runqueue in host.built_runqueues():
            problems.extend(runqueue.invariant_violations())
        return problems

    return check


def lifecycle_checker(host, sandboxes: Sequence) -> Checker:
    """vCPU/sandbox lifecycle legality against actual queue residency.

    * a RUNNABLE vCPU must sit on exactly the queue it claims, and that
      queue must have been built;
    * a PAUSED sandbox must have no vCPU on any queue;
    * no vCPU may appear on two queues (or twice on one).

    A RUNNING vCPU is legitimately off-queue (the dispatcher pops the
    entity it puts on the core), so only RUNNABLE residency is enforced.
    Only built queues are read; checking never builds one.
    """
    from repro.hypervisor.sandbox import SandboxState
    from repro.hypervisor.vcpu import VcpuState

    def check(_now_ns: int) -> List[str]:
        problems: List[str] = []
        placement = {}
        for runqueue in host.built_runqueues():
            if runqueue.entities.structure_errors():
                continue  # the runqueue checker owns broken links
            for vcpu in runqueue.entities:
                if vcpu.vcpu_id in placement:
                    problems.append(
                        f"vCPU #{vcpu.vcpu_id} on queues "
                        f"{placement[vcpu.vcpu_id]} and {runqueue.runqueue_id}"
                    )
                placement[vcpu.vcpu_id] = runqueue.runqueue_id
        for sandbox in sandboxes:
            for vcpu in sandbox.vcpus:
                queued = placement.get(vcpu.vcpu_id)
                if sandbox.state is SandboxState.PAUSED and queued is not None:
                    problems.append(
                        f"{sandbox.sandbox_id} is paused but vCPU "
                        f"#{vcpu.vcpu_id} still sits on queue {queued}"
                    )
                if vcpu.state is VcpuState.RUNNABLE:
                    if vcpu.runqueue_id not in host.runqueues:
                        problems.append(
                            f"vCPU #{vcpu.vcpu_id} ({sandbox.sandbox_id}) is "
                            f"runnable on queue {vcpu.runqueue_id}, which was "
                            f"never built"
                        )
                    elif queued is None:
                        problems.append(
                            f"vCPU #{vcpu.vcpu_id} ({sandbox.sandbox_id}) is "
                            f"runnable but on no queue"
                        )
                    elif queued != vcpu.runqueue_id:
                        problems.append(
                            f"vCPU #{vcpu.vcpu_id} claims queue "
                            f"{vcpu.runqueue_id} but sits on {queued}"
                        )
        return problems

    return check


def event_heap_checker(engine: Engine) -> Checker:
    """Event-heap monotonicity: nothing pending may precede *now*.

    O(1) while the heap is sound: only a root that precedes *now*
    triggers the sorted scan that names every offending event.
    """

    def check(now_ns: int) -> List[str]:
        earliest = engine.next_time()
        if earliest is None or earliest >= engine.now:
            return []
        problems: List[str] = []
        for event in engine.pending_events():
            if event.time < engine.now:
                problems.append(
                    f"event {event.label or event.sequence!r} scheduled at "
                    f"{event.time} ns, before now={engine.now} ns"
                )
        return problems

    return check


def pool_checker(pool) -> Checker:
    """Warm-pool accounting (paused-only storage, timer consistency)."""
    return lambda _now_ns: pool.invariant_violations()


def p2sm_freshness_checker(ull_manager) -> Checker:
    """arrayB/posA of every tied sandbox must match its queue's state."""
    return lambda _now_ns: ull_manager.check_freshness()


def dvfs_sample_checker(host) -> Checker:
    """No queue's load sample may come from a skewed (future) clock."""
    return lambda now_ns: sample_violations(host.built_runqueues(), now_ns)


def default_registry(
    host=None,
    sandboxes: Optional[Sequence] = None,
    ull_manager=None,
    obs: Optional[Observability] = None,
) -> InvariantRegistry:
    """A registry with every applicable built-in checker registered.

    Pass whichever components exist; the registry only wires checkers
    for what it is given, all at the BOUNDARY trigger.  Engines and
    sandbox pools register themselves when built under a run context
    holding a registry (:meth:`InvariantRegistry.watch_engine`).
    """
    registry = InvariantRegistry(obs=obs)
    if host is not None:
        registry.register("invariant.runqueue", runqueue_checker(host))
        registry.register("invariant.dvfs_clock", dvfs_sample_checker(host))
        if sandboxes is not None:
            registry.register(
                "invariant.lifecycle", lifecycle_checker(host, sandboxes)
            )
    if ull_manager is not None:
        registry.register(
            "invariant.p2sm_freshness", p2sm_freshness_checker(ull_manager)
        )
    return registry
