"""Core dispatchers: actually *run* what sits on the run queues.

The pause/resume machinery places vCPUs on sorted run queues; this
module executes them in simulated time, which gives three paper-relevant
behaviors a concrete implementation:

* **timeslices** — a general core preempts after the policy's quantum
  (~5 ms); a reserved uLL core preempts after 1 µs ("each task on the
  ull_runqueue has a maximum timeslice of 1 µs", §4.1.3);
* **policy accounting** — each slice charges credit (credit2) or
  vruntime (CFS) and re-sorts the queue, so long-running work really
  rotates;
* **priority preemption** — P2SM merge threads "are given the highest
  priority to preempt any task on the run queue where it is scheduled"
  (§4.1.3); :meth:`CoreDispatcher.preempt` models exactly that, and the
  victim's accumulated delay is what the §5.4 study measures at the p99.

Work arrives as :class:`WorkItem` (vCPU + remaining ns + completion
callback); the dispatcher interleaves items according to the queue's
sort order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.hypervisor.costs import CostModel
from repro.hypervisor.cpu import Host
from repro.hypervisor.runqueue import RunQueue
from repro.hypervisor.scheduler.base import SchedulerPolicy
from repro.hypervisor.vcpu import Vcpu
from repro.sim.engine import Engine
from repro.sim.event import Event, EventPriority


@dataclass
class WorkItem:
    """CPU work bound to one vCPU."""

    vcpu: Vcpu
    remaining_ns: int
    on_complete: Optional[Callable[["WorkItem"], None]] = None
    #: total time this item spent preempted by higher-priority threads
    preempted_ns: int = 0
    #: simulated instant the item finished (None while pending)
    completed_at: Optional[int] = None

    def __post_init__(self) -> None:
        if self.remaining_ns <= 0:
            raise ValueError(f"work must be positive, got {self.remaining_ns}")


class CoreDispatcher:
    """Runs one core's run queue: slice, charge, rotate, complete."""

    def __init__(
        self,
        engine: Engine,
        runqueue: RunQueue,
        policy: SchedulerPolicy,
        costs: CostModel,
    ) -> None:
        self.engine = engine
        self.runqueue = runqueue
        self.policy = policy
        self.costs = costs
        self._items: Dict[int, WorkItem] = {}  # vcpu_id -> item
        self._current: Optional[WorkItem] = None
        self._slice_event: Optional[Event] = None
        self._slice_started_ns = 0
        self.completed: List[WorkItem] = []
        self.preemptions = 0

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._current is not None

    @property
    def pending(self) -> int:
        return len(self._items) + (1 if self._current else 0)

    def submit(self, item: WorkItem) -> None:
        """Enqueue a vCPU's work; starts the core if it was idle."""
        if item.vcpu.vcpu_id in self._items or (
            self._current is not None
            and self._current.vcpu.vcpu_id == item.vcpu.vcpu_id
        ):
            raise ValueError(
                f"vCPU #{item.vcpu.vcpu_id} already has work on core "
                f"{self.runqueue.core_id}"
            )
        self._items[item.vcpu.vcpu_id] = item
        self.policy.on_enqueue(item.vcpu)
        self.runqueue.enqueue_sorted(item.vcpu, self.engine.now)
        if not self.busy:
            self._dispatch_next()

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------
    def _dispatch_next(self) -> None:
        vcpu = self.runqueue.pop_next()
        if vcpu is None:
            self._current = None
            return
        item = self._items.pop(vcpu.vcpu_id)
        self._current = item
        vcpu.mark_running()
        self._slice_started_ns = self.engine.now
        slice_ns = min(self.runqueue.timeslice_ns, item.remaining_ns)
        self._slice_event = self.engine.schedule_after(
            slice_ns,
            self._end_slice,
            priority=EventPriority.SCHEDULER,
            label=f"slice:core{self.runqueue.core_id}",
        )

    def _end_slice(self) -> None:
        item = self._current
        if item is None:
            return
        ran_ns = self.engine.now - self._slice_started_ns
        self._account(item, ran_ns)
        self._current = None
        self._slice_event = None
        if item.remaining_ns <= 0:
            item.completed_at = self.engine.now
            self.completed.append(item)
            if item.on_complete is not None:
                item.on_complete(item)
        else:
            # Rotate: back onto the queue at its new sort position.
            self._items[item.vcpu.vcpu_id] = item
            self.runqueue.enqueue_sorted_without_load(item.vcpu)
        self._dispatch_next()

    def _account(self, item: WorkItem, ran_ns: int) -> None:
        item.remaining_ns -= ran_ns
        self.policy.charge(item.vcpu, ran_ns)
        self.runqueue.load.decay_to(self.engine.now)

    # ------------------------------------------------------------------
    # Priority preemption (merge threads, §4.1.3)
    # ------------------------------------------------------------------
    def preempt(self, thread_ns: int) -> int:
        """A highest-priority thread takes the core for *thread_ns*.

        The running item (if any) is stopped mid-slice, charged for
        what it ran, and delayed by the thread's occupancy plus two
        context switches; it resumes at the head of the line.  Returns
        the delay imposed on the victim (0 on an idle core).
        """
        if thread_ns <= 0:
            raise ValueError(f"thread occupancy must be positive: {thread_ns}")
        victim = self._current
        if victim is None:
            return 0
        # Stop the in-flight slice.
        assert self._slice_event is not None
        self._slice_event.cancel()
        ran_ns = self.engine.now - self._slice_started_ns
        self._account(victim, ran_ns)
        self.preemptions += 1
        delay_ns = thread_ns + 2 * round(self.costs.context_switch_ns)
        victim.preempted_ns += delay_ns
        self._current = None

        def resume_victim() -> None:
            if victim.remaining_ns <= 0:
                victim.completed_at = self.engine.now
                self.completed.append(victim)
                if victim.on_complete is not None:
                    victim.on_complete(victim)
                self._dispatch_next()
                return
            # Head-of-line restart for the victim.
            self._current = victim
            victim.vcpu.mark_running()
            self._slice_started_ns = self.engine.now
            slice_ns = min(self.runqueue.timeslice_ns, victim.remaining_ns)
            self._slice_event = self.engine.schedule_after(
                slice_ns,
                self._end_slice,
                priority=EventPriority.SCHEDULER,
                label=f"slice:core{self.runqueue.core_id}",
            )

        self.engine.schedule_after(
            delay_ns,
            resume_victim,
            priority=EventPriority.INTERRUPT,
            label=f"merge-thread:core{self.runqueue.core_id}",
        )
        return delay_ns


class HostDispatcher:
    """One CoreDispatcher per core of a host."""

    def __init__(
        self,
        engine: Engine,
        host: Host,
        policy: SchedulerPolicy,
        costs: CostModel,
    ) -> None:
        self.engine = engine
        self.host = host
        self.cores: Dict[int, CoreDispatcher] = {
            core_id: CoreDispatcher(engine, host.runqueue(core_id), policy, costs)
            for core_id in range(host.spec.total_cores)
        }

    def core(self, core_id: int) -> CoreDispatcher:
        try:
            return self.cores[core_id]
        except KeyError:
            raise KeyError(f"host has no core {core_id}") from None

    def least_busy_general(self) -> CoreDispatcher:
        """The general core with the least queued work items."""
        general = [
            self.cores[rq.core_id] for rq in self.host.general_runqueues()
        ]
        return min(general, key=lambda d: (d.pending, d.runqueue.core_id))

    def submit_to_least_busy(self, item: WorkItem) -> CoreDispatcher:
        dispatcher = self.least_busy_general()
        dispatcher.submit(item)
        return dispatcher
