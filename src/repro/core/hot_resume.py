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
from typing import Callable, Optional

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
    emit_resume_obs,
)
from repro.hypervisor.runqueue import RunQueue
from repro.hypervisor.sandbox import Sandbox, SandboxState
from repro.hypervisor.scheduler.base import SchedulerPolicy
from repro.metrics.recorder import Breakdown
from repro.obs.context import Observability, current as current_obs


def _pause_handles(metrics):
    """Registry-cached instrument bundle shared by every HORSE pause path."""
    return (
        metrics.counter("pause.count"),
        metrics.counter("p2sm.precompute_entries"),
        metrics.histogram("pause.precompute_ns"),
    )


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
        #: (pause ctr, precompute ctr, precompute histo) — bound on the
        #: first observed pause in _emit_pause_obs; see _pause_handles.
        self._pause_instruments = None

    # ------------------------------------------------------------------
    # Pause: dequeue + precompute
    # ------------------------------------------------------------------
    def pause(self, sandbox: Sandbox, now_ns: int) -> HorsePauseResult:
        sandbox.require_state(SandboxState.RUNNING)
        # A sandbox that was HORSE-paused but then resumed through the
        # *vanilla* path keeps its stale queue assignment (the vanilla
        # path knows nothing about the uLL manager); detach it before
        # re-assigning.
        self.ull.unassign(sandbox)
        sandbox.clear_horse_artifacts()
        dequeued, by_queue = dequeue_sandbox(self.host, sandbox, now_ns)
        duration = (
            self.costs.pause_fixed_ns + self.costs.pause_dequeue_vcpu_ns * dequeued
        )
        # Dequeuing mutated reserved queues: every *other* paused
        # sandbox tied to them holds arrayB entries referencing nodes
        # that may just have been unlinked — refresh their
        # precomputation now ("the updates are performed each time
        # ull_runqueue is updated", §4.1.3).  Each refresh hands back
        # the snapshot it walked (None when nothing tied needed one).
        ull = self.ull
        snapshots = {
            queue_id: ull.on_queue_updated(queue_id)
            for queue_id in by_queue
            if ull.is_ull_queue(queue_id)
        }
        sandbox.transition(SandboxState.PAUSED)

        dequeue_ns = duration

        # Build merge_vcpus: the sandbox's vCPUs, pre-sorted once by the
        # scheduler key so resume never iterates them again.
        for vcpu in sandbox.vcpus:
            self.policy.on_enqueue(vcpu)
        sandbox.merge_vcpus = sorted(sandbox.vcpus, key=self.policy.sort_key)
        sort_ns = self.costs.horse_pause_sort_vcpu_ns * sandbox.vcpu_count
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
            sandbox.p2sm_state = P2SMState(
                sandbox.merge_vcpus, queue.entities, snapshot
            )
            precompute_entries = len(snapshot.nodes) + len(sandbox.merge_vcpus)
            p2sm_ns = self.costs.p2sm_refresh_entry_ns * precompute_entries
            duration += p2sm_ns

        # The fused load update depends only on the vCPU count.
        coalesce_ns = 0.0
        if self.config.enable_coalescing:
            sandbox.coalesced_update = coalesced_enqueue_update(sandbox.vcpu_count)
            coalesce_ns = self.costs.horse_pause_coalesce_ns
            duration += coalesce_ns

        if self.obs.enabled:
            self._emit_pause_obs(
                sandbox, now_ns, queue.core_id,
                dequeue_ns=dequeue_ns, sort_ns=sort_ns, p2sm_ns=p2sm_ns,
                coalesce_ns=coalesce_ns, precompute_entries=precompute_entries,
            )
        return HorsePauseResult(
            sandbox_id=sandbox.sandbox_id,
            duration_ns=round(duration),
            dequeued_vcpus=dequeued,
            precompute_entries=precompute_entries,
            precompute_bytes=self.costs.horse_memory_bytes(sandbox.vcpu_count),
        )

    def _emit_pause_obs(
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
        buys the O(1) resume.

        Span building and metric updates gate independently on the
        tracer's and registry's own ``enabled`` flags: a metrics-only
        bundle skips all span/kwarg construction, a tracer-only bundle
        skips the instrument updates.
        """
        tracer = self.obs.tracer
        if tracer.enabled:
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
        metrics = self.obs.metrics
        if metrics.enabled:
            handles = self._pause_instruments
            if handles is None:
                handles = self._pause_instruments = metrics.bound(
                    "horse.pause", _pause_handles
                )
            handles[0].inc()
            handles[1].inc(precompute_entries)
            handles[2].observe(round(sort_ns + p2sm_ns + coalesce_ns))

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
            for vcpu in sandbox.vcpus:
                vcpu.mark_runnable(queue.runqueue_id)
            breakdown.add(
                STEP_MERGE, round(self.costs.p2sm_merge_cost_ns(report.threads))
            )
        else:
            # coal-only setup: vanilla sorted merge, but into the single
            # reserved queue so one coalesced update covers all vCPUs.
            assert sandbox.merge_vcpus is not None
            scan_steps = sorted_merge_reference(queue.entities, sandbox.merge_vcpus)
            for vcpu in sandbox.vcpus:
                vcpu.mark_runnable(queue.runqueue_id)
            breakdown.add(
                STEP_MERGE,
                round(self.costs.merge_cost_ns(sandbox.vcpu_count, scan_steps)),
            )

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
            for vcpu in sandbox.vcpus:
                queue.load.enqueue_entity(now_ns, vcpu.weight)
            breakdown.add(
                STEP_LOAD, round(self.costs.load_update_cost_ns(sandbox.vcpu_count))
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
            config = self.config
            emit_resume_obs(
                self.obs, sandbox, now_ns, breakdown, "horse", queue.core_id,
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
