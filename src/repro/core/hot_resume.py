"""HORSE: the hot-resume fast path (paper §4).

:class:`HorsePauseResume` replaces the vanilla pause/resume pair for
uLL sandboxes.  Its configuration selects which of the two mechanisms
are active, which yields the paper's four Figure-3 setups:

============  ==========  ===============  ==================
setup         P2SM        load coalescing  command fast path
============  ==========  ===============  ==================
``vanil``     (use :class:`~repro.hypervisor.pause_resume.VanillaPauseResume`)
``ppsm``      on          off              off
``coal``      off         on               off
``horse``     on          on               on
============  ==========  ===============  ==================

Pause-time work (all while the sandbox is *not* latency critical):

* dequeue the vCPUs (as vanilla does);
* build ``merge_vcpus`` — the sandbox's vCPUs pre-sorted by the active
  scheduler key;
* tie the sandbox to a reserved ``ull_runqueue`` (load-balanced);
* precompute P2SM's ``arrayB``/``posA`` against that queue;
* precompute the coalesced load update's ``alpha^n`` and beta term.

Resume-time work is then O(1): a trimmed command path, one parallel
splice of ``merge_vcpus`` into the queue (two pointer writes per merge
thread, threads run concurrently), and a single fused load update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ItemsView, Optional

from repro.core.p2sm import (
    MergeReport,
    P2SMState,
    QueueSnapshot,
    sorted_merge_reference,
)
from repro.core.ull_runqueue import UllRunqueueManager
from repro.hypervisor.costs import CostModel
from repro.hypervisor.cpu import Host
from repro.hypervisor.load_tracking import coalesced_enqueue_update
from repro.hypervisor.pause_resume import (
    STEP_FINALIZE,
    STEP_LOAD,
    STEP_LOCK,
    STEP_MERGE,
    STEP_PARSE,
    STEP_SANITY,
    STEP_STALL,
    PauseResult,
    ResumeFaultHook,
    ResumeResult,
    apply_resume_fault,
    dequeue_sandbox,
    record_resume_spans,
    tally_resume,
)
from repro.hypervisor.runqueue import RunQueue
from repro.hypervisor.sandbox import Sandbox, SandboxState
from repro.hypervisor.scheduler.base import SchedulerPolicy
from repro.hypervisor.vcpu import VcpuState
from repro.metrics.recorder import Breakdown
from repro.obs.context import Observability, current as current_obs
from repro.obs.metrics import MetricRegistry
from repro.obs.phases import fold_resumes


_RUNNABLE = VcpuState.RUNNABLE


def _fold_pauses(metrics: MetricRegistry, pauses: ItemsView) -> None:
    """Fold the HORSE pause tally, keyed ``(precompute_entries,
    precompute_ns)``, into its counters and histogram."""
    count = metrics.counter("pause.count")
    entries = metrics.counter("p2sm.precompute_entries")
    precompute = metrics.histogram("pause.precompute_ns")
    for (pause_entries, precompute_ns), n in pauses:
        count.inc(n)
        entries.inc(pause_entries * n)
        precompute.observe(precompute_ns, n)


@dataclass(frozen=True)
class HorseConfig:
    """Mechanism switches for the HORSE pause/resume path."""

    enable_p2sm: bool = True
    enable_coalescing: bool = True
    fast_command_path: bool = True

    @classmethod
    def ppsm_only(cls) -> "HorseConfig":
        return cls(enable_p2sm=True, enable_coalescing=False, fast_command_path=False)

    @classmethod
    def coalescing_only(cls) -> "HorseConfig":
        return cls(enable_p2sm=False, enable_coalescing=True, fast_command_path=False)

    @classmethod
    def full(cls) -> "HorseConfig":
        return cls()


@dataclass
class HorsePauseResult(PauseResult):
    """Pause outcome plus the precompute work done for the fast resume."""

    precompute_entries: int = 0
    precompute_bytes: int = 0


@dataclass
class HorseResumeResult(ResumeResult):
    """Resume outcome plus merge-thread accounting for §5.4."""

    merge_threads: int = 0
    pointer_writes: int = 0


class HorsePauseResume:
    """The HORSE fast path, bound to one host and one uLL manager."""

    def __init__(
        self,
        host: Host,
        policy: SchedulerPolicy,
        costs: CostModel,
        ull_manager: Optional[UllRunqueueManager] = None,
        config: HorseConfig = HorseConfig.full(),
        obs: Optional[Observability] = None,
    ) -> None:
        self.host = host
        self.policy = policy
        self.costs = costs
        self.config = config
        # Defaults to the active observability context so drivers that
        # construct the fast path directly trace without plumbing.
        self.obs = obs if obs is not None else current_obs()
        self.ull = ull_manager or UllRunqueueManager(host)
        #: Optional callable fired between step 4 (merge) and step 5
        #: (load update) as ``f(sandbox, queue, now_ns)``.  This is the
        #: window the paper's global resume lock protects in vanilla;
        #: repro.check's fault injector uses it to model concurrent
        #: mutations racing the trimmed fast path.
        self.mid_resume_hook: Optional[
            Callable[[Sandbox, "RunQueue", int], None]
        ] = None
        #: Optional per-resume fault decision (repro.resilience failure
        #: domains) — the fast path fails under the same injector as the
        #: vanilla path.
        self.fault_hook: Optional[ResumeFaultHook] = None
        #: the registry's resume and pause tallies (None when metrics are off)
        metrics = self.obs.metrics
        self._resumes = metrics.tally(fold_resumes)
        self._pauses = metrics.tally(_fold_pauses)

    # ------------------------------------------------------------------
    # Pause: dequeue + precompute
    # ------------------------------------------------------------------
    def pause(self, sandbox: Sandbox, now_ns: int) -> HorsePauseResult:
        sandbox.require_state(SandboxState.RUNNING)
        ull = self.ull
        costs = self.costs
        # A sandbox that was HORSE-paused but then resumed through the
        # *vanilla* path keeps its stale queue assignment (the vanilla
        # path knows nothing about the uLL manager); detach it before
        # re-assigning.
        ull.unassign(sandbox)
        sandbox.clear_horse_artifacts()
        dequeued, by_queue = dequeue_sandbox(self.host, sandbox, now_ns)
        duration = costs.pause_fixed_ns + costs.pause_dequeue_vcpu_ns * dequeued
        # Dequeuing mutated reserved queues: every *other* paused
        # sandbox tied to them holds arrayB entries referencing nodes
        # that may just have been unlinked — refresh their
        # precomputation now ("the updates are performed each time
        # ull_runqueue is updated", §4.1.3).  Each refresh hands back
        # the snapshot it walked (None when nothing tied needed one).
        snapshots = {
            queue_id: ull.on_queue_updated(queue_id)
            for queue_id in by_queue
            if ull.is_ull_queue(queue_id)
        }
        sandbox.transition(SandboxState.PAUSED)

        dequeue_ns = duration

        # Ready each vCPU's accounting for its next enqueue, then build
        # merge_vcpus: the vCPUs pre-sorted once by the scheduler key
        # (below, with the precompute) so resume never iterates them
        # again.  The sort is charged per vCPU.
        vcpus = sandbox.vcpus
        vcpu_count = len(vcpus)
        on_enqueue = self.policy.on_enqueue
        for vcpu in vcpus:
            on_enqueue(vcpu)
        sort_ns = costs.horse_pause_sort_vcpu_ns * vcpu_count
        duration += sort_ns

        # Tie to a reserved queue and precompute P2SM structures.
        queue = ull.assign(sandbox)
        precompute_entries = 0
        p2sm_ns = 0.0
        if self.config.enable_p2sm:
            # A snapshot this pause already took of the assigned queue is
            # still exact: since it was taken, only the pausing sandbox's
            # own (unlinked) vCPUs changed.  Never reuse one across
            # calls — running vCPUs' keys move without any list change.
            snapshot = snapshots.get(queue.runqueue_id)
            if snapshot is None:
                snapshot = QueueSnapshot.of(queue.entities)
            # The state sorts A by the queue's key, which is the
            # scheduler's: its sorted copy is merge_vcpus.
            state = P2SMState(vcpus, queue.entities, snapshot)
            sandbox.p2sm_state = state
            sandbox.merge_vcpus = state.values_a
            precompute_entries = len(snapshot.nodes) + vcpu_count
            p2sm_ns = costs.p2sm_refresh_entry_ns * precompute_entries
            duration += p2sm_ns
        else:
            sandbox.merge_vcpus = sorted(vcpus, key=self.policy.sort_key)

        # The fused load update depends only on the vCPU count.
        coalesce_ns = 0.0
        if self.config.enable_coalescing:
            sandbox.coalesced_update = coalesced_enqueue_update(vcpu_count)
            coalesce_ns = costs.horse_pause_coalesce_ns
            duration += coalesce_ns

        if self.obs.enabled:
            if self._pauses is not None:
                self._pauses[
                    precompute_entries, round(sort_ns + p2sm_ns + coalesce_ns)
                ] += 1
            if self.obs.tracer.enabled:
                self._record_pause_spans(
                    sandbox, now_ns, queue.core_id,
                    dequeue_ns=dequeue_ns, sort_ns=sort_ns, p2sm_ns=p2sm_ns,
                    coalesce_ns=coalesce_ns,
                    precompute_entries=precompute_entries,
                )
        return HorsePauseResult(
            sandbox_id=sandbox.sandbox_id,
            duration_ns=round(duration),
            dequeued_vcpus=dequeued,
            precompute_entries=precompute_entries,
            precompute_bytes=costs.horse_memory_bytes(vcpu_count),
        )

    def _record_pause_spans(
        self,
        sandbox: Sandbox,
        now_ns: int,
        core_id: int,
        dequeue_ns: float,
        sort_ns: float,
        p2sm_ns: float,
        coalesce_ns: float,
        precompute_entries: int,
    ) -> None:
        """Span tree for a HORSE pause: dequeue, then the precompute
        work (vCPU sort, P2SM refresh, coalesced-update build) that
        buys the O(1) resume.  Called only when the tracer is enabled.
        """
        tracer = self.obs.tracer
        tracer.name_process(core_id, f"cpu{core_id}")
        tid = tracer.tid_for(sandbox.sandbox_id, pid=core_id)
        root = tracer.open_span(
            "pause", now_ns, category="pause", pid=core_id, tid=tid,
            sandbox=sandbox.sandbox_id, path="horse",
        )
        cursor = now_ns
        tracer.record_span(
            "dequeue", cursor, round(dequeue_ns), pid=core_id, tid=tid,
            category="pause",
        )
        cursor += round(dequeue_ns)
        precompute = tracer.open_span(
            "precompute", cursor, category="pause", pid=core_id, tid=tid,
            entries=precompute_entries,
        )
        for name, phase_ns in (
            ("sort_vcpus", sort_ns),
            ("p2sm_refresh", p2sm_ns),
            ("coalesce", coalesce_ns),
        ):
            tracer.record_span(
                name, cursor, round(phase_ns), pid=core_id, tid=tid,
                category="pause",
            )
            cursor += round(phase_ns)
        precompute.close(cursor)
        root.close(cursor)

    # ------------------------------------------------------------------
    # Resume: the fast path
    # ------------------------------------------------------------------
    def resume(self, sandbox: Sandbox, now_ns: int) -> HorseResumeResult:
        breakdown = Breakdown()
        stall_ns = apply_resume_fault(self.fault_hook, sandbox, now_ns, "horse")
        if stall_ns:
            breakdown.add(STEP_STALL, round(stall_ns))
        if self.config.fast_command_path:
            breakdown.add(STEP_PARSE, round(self.costs.fast_parse_ns))
            breakdown.add(STEP_LOCK, round(self.costs.fast_lock_ns))
        else:
            breakdown.add(STEP_PARSE, round(self.costs.resume_parse_ns))
            breakdown.add(STEP_LOCK, round(self.costs.resume_lock_ns))

        sandbox.require_state(SandboxState.PAUSED)
        sandbox.transition(SandboxState.RESUMING)
        breakdown.add(
            STEP_SANITY,
            round(
                self.costs.fast_sanity_ns
                if self.config.fast_command_path
                else self.costs.resume_sanity_ns
            ),
        )

        queue_id = sandbox.assigned_ull_runqueue
        if queue_id is None:
            raise RuntimeError(
                f"{sandbox.sandbox_id}: resume without a pause-time "
                "ull_runqueue assignment"
            )
        queue = self.ull.queue(queue_id)
        vcpus = sandbox.vcpus

        # Step 4: merge merge_vcpus into the reserved queue.
        merge_threads = 0
        pointer_writes = 0
        if self.config.enable_p2sm:
            if sandbox.p2sm_state is None:
                raise RuntimeError(
                    f"{sandbox.sandbox_id}: P2SM enabled but no precomputed state"
                )
            report: MergeReport = sandbox.p2sm_state.merge()
            merge_threads = report.threads
            pointer_writes = report.pointer_writes
            breakdown.add(
                STEP_MERGE, round(self.costs.p2sm_merge_cost_ns(report.threads))
            )
        else:
            # coal-only setup: vanilla sorted merge, but into the single
            # reserved queue so one coalesced update covers all vCPUs.
            assert sandbox.merge_vcpus is not None
            scan_steps = sorted_merge_reference(queue.entities, sandbox.merge_vcpus)
            breakdown.add(
                STEP_MERGE,
                round(self.costs.merge_cost_ns(len(vcpus), scan_steps)),
            )
        for vcpu in vcpus:
            vcpu.state = _RUNNABLE
            vcpu.runqueue_id = queue_id

        if self.mid_resume_hook is not None:
            self.mid_resume_hook(sandbox, queue, now_ns)

        # Step 5: load update — fused or per-vCPU.
        if self.config.enable_coalescing:
            update = sandbox.coalesced_update
            if update is None:
                raise RuntimeError(
                    f"{sandbox.sandbox_id}: coalescing enabled but no "
                    "precomputed update"
                )
            queue.load.apply_coalesced(now_ns, update.alpha_n, update.beta_sum)
            breakdown.add(STEP_LOAD, round(self.costs.coalesced_update_ns))
        else:
            for vcpu in vcpus:
                queue.load.enqueue_entity(now_ns, vcpu.weight)
            breakdown.add(
                STEP_LOAD, round(self.costs.load_update_cost_ns(len(vcpus)))
            )

        # Step 6: finalize.
        self.ull.unassign(sandbox)
        sandbox.clear_horse_artifacts()
        sandbox.transition(SandboxState.RUNNING)
        if not self.config.fast_command_path:
            breakdown.add(STEP_FINALIZE, round(self.costs.resume_finalize_ns))

        # Other paused sandboxes tied to this queue must refresh their
        # precomputation (the queue just changed under them).
        self.ull.on_queue_updated(queue.runqueue_id)

        if self.obs.enabled:
            if self._resumes is not None:
                tally_resume(self._resumes, breakdown)
            tracer = self.obs.tracer
            if tracer.enabled:
                config = self.config
                record_resume_spans(
                    tracer, sandbox, now_ns, breakdown, "horse", queue.core_id,
                    root={"fast_path": config.fast_command_path},
                    merge={
                        "p2sm": config.enable_p2sm, "threads": merge_threads,
                        "pointer_writes": pointer_writes,
                    },
                    load_update={"coalesced": config.enable_coalescing},
                )
        return HorseResumeResult(
            sandbox_id=sandbox.sandbox_id,
            breakdown=breakdown,
            runqueue_ids=[queue.runqueue_id],
            merge_threads=merge_threads,
            pointer_writes=pointer_writes,
        )
