"""The vanilla sandbox pause/resume path (paper §3.1).

``VanillaPauseResume.resume`` executes the six steps the paper unrolls:

1. parse the resume command's parameters;
2. acquire the global resume lock;
3. sanity-check the target sandbox (must be paused);
4. for each vCPU, pick a run queue and *sorted-merge* the vCPU into it;
5. for each inserted vCPU, update the queue's tracked load (the DVFS
   input) with one affine PELT fold;
6. release the lock and flip the sandbox to running.

Every step both *does the real work* on the run-queue structures and
*charges simulated time* from the cost model; the per-step durations
come back in a :class:`~repro.metrics.recorder.Breakdown`, which is
exactly the data behind the paper's Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, ItemsView, List, Optional, Tuple

from repro.hypervisor.costs import CostModel
from repro.hypervisor.cpu import Host
from repro.hypervisor.sandbox import Sandbox, SandboxError, SandboxState
from repro.hypervisor.scheduler.base import SchedulerPolicy
from repro.hypervisor.vcpu import Vcpu, VcpuState
from repro.metrics.recorder import Breakdown
from repro.obs.context import Observability, current as current_obs
from repro.obs.metrics import MetricRegistry, Tally
from repro.obs.phases import fold_resumes
from repro.obs.span import Tracer

# Step names, used as Breakdown phase keys everywhere downstream.
#: Injected stall (slow-resume fault); present only in chaos runs.
STEP_STALL = "0-stall"
STEP_PARSE = "1-parse"
STEP_LOCK = "2-lock"
STEP_SANITY = "3-sanity"
STEP_MERGE = "4-sorted-merge"
STEP_LOAD = "5-load-update"
STEP_FINALIZE = "6-finalize"

#: The two steps the paper attributes 87.5-93.1 % of the resume to.
HOT_STEPS = (STEP_MERGE, STEP_LOAD)

_PAUSED = VcpuState.PAUSED


@dataclass
class ResumeResult:
    """Outcome of one resume call."""

    sandbox_id: str
    breakdown: Breakdown
    runqueue_ids: List[int] = field(default_factory=list)

    @property
    def total_ns(self) -> int:
        return self.breakdown.total_ns


@dataclass
class PauseResult:
    """Outcome of one pause call."""

    sandbox_id: str
    duration_ns: int
    dequeued_vcpus: int


class ResumeLockBusyError(SandboxError):
    """A second resume raced the global resume lock."""


# ----------------------------------------------------------------------
# Injected resume faults (repro.resilience failure domains)
# ----------------------------------------------------------------------

#: Fault kinds a resume-path fault hook may return.
RESUME_FAULT_TRANSIENT = "transient_resume_error"
RESUME_FAULT_SLOW = "slow_resume"
RESUME_FAULT_HUNG = "hung_resume"


@dataclass(frozen=True)
class ResumeFault:
    """One fault decision for a single resume call.

    ``stall_ns`` is only meaningful for :data:`RESUME_FAULT_SLOW` — the
    extra latency charged to the resume's breakdown.
    """

    kind: str
    stall_ns: int = 0


#: A fault hook inspects ``(sandbox, now_ns)`` and returns the fault to
#: apply to this resume, or None for a clean resume.  Installed by the
#: resilience layer's failure injector; None (the default) costs one
#: ``is not None`` check.
ResumeFaultHook = Callable[[Sandbox, int], Optional[ResumeFault]]


class TransientResumeError(SandboxError):
    """The hypervisor resume command failed transiently.

    The target sandbox is left PAUSED and untouched — retrying (or
    re-pooling it) is legal.  Carries the sandbox so callers above the
    start-strategy layer can recover it.
    """

    def __init__(self, sandbox: Sandbox, message: str) -> None:
        super().__init__(message)
        self.sandbox = sandbox


class HungResumeError(SandboxError):
    """The resume operation stalled permanently.

    The sandbox is left stuck in RESUMING (nothing was enqueued); the
    caller is expected to detect the hang via its attempt timeout and
    destroy the sandbox.
    """

    def __init__(self, sandbox: Sandbox, message: str) -> None:
        super().__init__(message)
        self.sandbox = sandbox


def apply_resume_fault(
    fault_hook: Optional[ResumeFaultHook],
    sandbox: Sandbox,
    now_ns: int,
    path: str,
) -> int:
    """Consult *fault_hook* for this resume; raise or return a stall.

    Returns the stall to charge (0 for a clean resume); raises
    :class:`TransientResumeError` / :class:`HungResumeError` for the
    terminal kinds.  Shared by the vanilla and the HORSE resume paths so
    both fail identically under the same injector.
    """
    if fault_hook is None:
        return 0
    fault = fault_hook(sandbox, now_ns)
    if fault is None:
        return 0
    if fault.kind == RESUME_FAULT_TRANSIENT:
        raise TransientResumeError(
            sandbox,
            f"{sandbox.sandbox_id}: injected transient {path} resume error",
        )
    if fault.kind == RESUME_FAULT_HUNG:
        # The command got far enough to flip the sandbox into RESUMING,
        # then stalled forever; nothing was enqueued.
        sandbox.require_state(SandboxState.PAUSED)
        sandbox.transition(SandboxState.RESUMING)
        raise HungResumeError(
            sandbox, f"{sandbox.sandbox_id}: injected hung {path} resume"
        )
    if fault.kind == RESUME_FAULT_SLOW:
        if fault.stall_ns < 0:
            raise ValueError(f"negative stall {fault.stall_ns}")
        return fault.stall_ns
    raise ValueError(f"unknown resume fault kind {fault.kind!r}")


def dequeue_sandbox(
    host: Host, sandbox: Sandbox, now_ns: int
) -> Tuple[int, Dict[int, List[Vcpu]]]:
    """Take every vCPU of *sandbox* off its run queue and mark it paused.

    The vCPUs are grouped by the queue they claim, so each queue is
    walked once (:meth:`RunQueue.dequeue_all`) and folds its removed
    vCPUs out in sandbox order.  Shared by the vanilla and the HORSE
    pause.  Returns how many vCPUs were removed, and the grouping keyed
    by every queue id a vCPU claimed.
    """
    by_queue: Dict[int, List[Vcpu]] = {}
    for vcpu in sandbox.vcpus:
        queue_id = vcpu.runqueue_id
        if queue_id is not None:
            group = by_queue.get(queue_id)
            if group is None:
                by_queue[queue_id] = [vcpu]
            else:
                group.append(vcpu)
            vcpu.runqueue_id = None
        vcpu.state = _PAUSED
    runqueues = host.runqueues
    dequeued = 0
    for queue_id, group in by_queue.items():
        dequeued += runqueues[queue_id].dequeue_all(group, now_ns)
    return dequeued, by_queue


def tally_resume(resumes: Tally, breakdown: Breakdown) -> None:
    """Count one resume in the registry's resume tally (see
    :func:`repro.obs.phases.fold_resumes`); shared by the vanilla and
    the HORSE resume, which both always charge the merge and the load
    step."""
    phases = breakdown.phases
    # sum() of the values is Breakdown.total_ns without the property call.
    resumes[phases[STEP_MERGE], phases[STEP_LOAD], sum(phases.values())] += 1


def record_resume_spans(
    tracer: Tracer,
    sandbox: Sandbox,
    now_ns: int,
    breakdown: Breakdown,
    path: str,
    pid: int,
    merge: Dict[str, object],
    load_update: Dict[str, object],
    root: Optional[Dict[str, object]] = None,
) -> None:
    """Lay a resume's steps out as nested spans; shared by the vanilla
    and the HORSE resume.

    The children tile the root exactly, so the span total always
    reconciles with the breakdown.  *pid* is the core the resume ran
    on; *root*, *merge* and *load_update* are each path's own span
    attributes, which callers build only when the tracer is enabled.
    """
    tracer.name_process(pid, f"cpu{pid}")
    tid = tracer.tid_for(sandbox.sandbox_id, pid=pid)
    timeline = tracer.timeline(
        "resume", now_ns, category="resume", pid=pid, tid=tid,
        sandbox=sandbox.sandbox_id, path=path,
        vcpus=sandbox.vcpu_count, **(root or {}),
    )
    phases = breakdown.phases
    if phases.get(STEP_STALL):
        timeline.phase("stall", phases[STEP_STALL], injected=True)
    timeline.phase("parse", phases.get(STEP_PARSE, 0))
    timeline.phase("lock", phases.get(STEP_LOCK, 0))
    timeline.phase("sanity", phases.get(STEP_SANITY, 0))
    timeline.phase("merge", phases.get(STEP_MERGE, 0), **merge)
    timeline.phase("load_update", phases.get(STEP_LOAD, 0), **load_update)
    timeline.phase("dispatch", phases.get(STEP_FINALIZE, 0))
    timeline.finish(total_ns=breakdown.total_ns)


def _fold_pauses(metrics: MetricRegistry, pauses: ItemsView) -> None:
    """Fold the vanilla pause tally (one key) into ``pause.count``."""
    count = metrics.counter("pause.count")
    for _key, n in pauses:
        count.inc(n)


class VanillaPauseResume:
    """Unmodified pause/resume, as shipped by Firecracker/KVM and Xen."""

    def __init__(
        self,
        host: Host,
        policy: SchedulerPolicy,
        costs: CostModel,
        obs: Optional[Observability] = None,
    ) -> None:
        self.host = host
        self.policy = policy
        self.costs = costs
        # Defaults to the active observability context so drivers that
        # construct the resume path directly trace without plumbing.
        self.attach_observability(obs if obs is not None else current_obs())
        self._resume_lock_owner: Optional[str] = None
        #: Optional per-resume fault decision (repro.resilience failure
        #: domains): transient errors, latency stalls, permanent hangs.
        self.fault_hook: Optional[ResumeFaultHook] = None

    def attach_observability(self, obs: Observability) -> None:
        """Report pauses and resumes to *obs*: its tracer, and one
        resume and one pause tally in its registry."""
        self.obs = obs
        self._resumes = obs.metrics.tally(fold_resumes)
        self._pauses = obs.metrics.tally(_fold_pauses)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place_initial(self, sandbox: Sandbox, now_ns: int) -> None:
        """First placement when a sandbox boots (not timed — boot costs
        dominate and are charged by the start strategies).  Each vCPU
        goes to the least-loaded general-purpose queue, as on resume."""
        sandbox.require_state(SandboxState.CREATING)
        placements = self.host.least_loaded_generals(len(sandbox.vcpus))
        on_enqueue = self.policy.on_enqueue
        for vcpu in sandbox.vcpus:
            runqueue = next(placements)
            on_enqueue(vcpu)
            runqueue.enqueue_sorted(vcpu, now_ns)
        sandbox.transition(SandboxState.RUNNING)

    # ------------------------------------------------------------------
    # Pause
    # ------------------------------------------------------------------
    def pause(self, sandbox: Sandbox, now_ns: int) -> PauseResult:
        """Remove every vCPU from its run queue; sandbox goes PAUSED."""
        sandbox.require_state(SandboxState.RUNNING)
        dequeued, _by_queue = dequeue_sandbox(self.host, sandbox, now_ns)
        duration = (
            self.costs.pause_fixed_ns + self.costs.pause_dequeue_vcpu_ns * dequeued
        )
        sandbox.transition(SandboxState.PAUSED)
        if self.obs.enabled:
            pauses = self._pauses
            if pauses is not None:
                pauses[None] += 1
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.record_span(
                    "pause", now_ns, round(duration), category="pause",
                    tid=tracer.tid_for(sandbox.sandbox_id),
                    sandbox=sandbox.sandbox_id, path="vanilla",
                    dequeued=dequeued,
                )
        return PauseResult(
            sandbox_id=sandbox.sandbox_id,
            duration_ns=round(duration),
            dequeued_vcpus=dequeued,
        )

    # ------------------------------------------------------------------
    # Resume (the six steps)
    # ------------------------------------------------------------------
    def resume(self, sandbox: Sandbox, now_ns: int) -> ResumeResult:
        breakdown = Breakdown()

        # Step 0 (chaos runs only): injected fault — may raise, may stall.
        stall_ns = apply_resume_fault(self.fault_hook, sandbox, now_ns, "vanilla")
        if stall_ns:
            breakdown.add(STEP_STALL, round(stall_ns))

        # Step 1: parse input parameters.
        breakdown.add(STEP_PARSE, round(self.costs.resume_parse_ns))

        # Step 2: take the global resume lock.
        if self._resume_lock_owner is not None:
            raise ResumeLockBusyError(
                f"resume lock held by {self._resume_lock_owner!r}"
            )
        self._resume_lock_owner = sandbox.sandbox_id
        breakdown.add(STEP_LOCK, round(self.costs.resume_lock_ns))

        try:
            # Step 3: sanity checks (target must be paused).
            sandbox.require_state(SandboxState.PAUSED)
            sandbox.transition(SandboxState.RESUMING)
            breakdown.add(STEP_SANITY, round(self.costs.resume_sanity_ns))

            # Steps 4 + 5, interleaved per vCPU as the paper describes.
            runqueue_ids, scan_steps = self._enqueue_all(sandbox, now_ns, breakdown)

            # Step 6: release the lock, sandbox runs.
            sandbox.transition(SandboxState.RUNNING)
            breakdown.add(STEP_FINALIZE, round(self.costs.resume_finalize_ns))
        finally:
            self._resume_lock_owner = None

        if self.obs.enabled:
            if self._resumes is not None:
                tally_resume(self._resumes, breakdown)
            tracer = self.obs.tracer
            if tracer.enabled:
                record_resume_spans(
                    tracer, sandbox, now_ns, breakdown, "vanilla",
                    # a host's run-queue ids are its core ids
                    runqueue_ids[0] if runqueue_ids else 0,
                    merge={"scan_steps": scan_steps},
                    load_update={"coalesced": False, "folds": sandbox.vcpu_count},
                )
        return ResumeResult(
            sandbox_id=sandbox.sandbox_id,
            breakdown=breakdown,
            runqueue_ids=runqueue_ids,
        )

    def _enqueue_all(
        self, sandbox: Sandbox, now_ns: int, breakdown: Breakdown
    ) -> tuple[List[int], int]:
        """Steps 4 and 5 for every vCPU; charges per-vCPU costs.

        Returns the run queues used and the total sorted-insert scan
        steps (span attribution data for the observability layer).
        """
        costs = self.costs
        on_enqueue = self.policy.on_enqueue
        scan_step_ns = costs.merge_scan_step_ns
        warm_merge_ns = costs.merge_warm_vcpu_ns
        warm_load_ns = costs.load_update_warm_ns
        # The first vCPU pays the cold costs, every later one the warm.
        vcpu_merge_ns = costs.merge_first_vcpu_ns
        vcpu_load_ns = costs.load_update_first_ns
        merge_ns = 0.0
        load_ns = 0.0
        total_scan_steps = 0
        runqueue_ids: List[int] = []
        # Vanilla placement rule: least-loaded general-purpose queue.
        placements = self.host.least_loaded_generals(len(sandbox.vcpus))
        for vcpu in sandbox.vcpus:
            runqueue = next(placements)
            on_enqueue(vcpu)
            # Steps 4 + 5: real O(n) sorted insert (its scan hops come
            # back) and real PELT fold on that queue's load.
            scan_steps = runqueue.enqueue_sorted(vcpu, now_ns)
            total_scan_steps += scan_steps
            merge_ns += vcpu_merge_ns
            merge_ns += scan_step_ns * scan_steps
            load_ns += vcpu_load_ns
            vcpu_merge_ns = warm_merge_ns
            vcpu_load_ns = warm_load_ns
            runqueue_ids.append(runqueue.runqueue_id)
        breakdown.add(STEP_MERGE, round(merge_ns))
        breakdown.add(STEP_LOAD, round(load_ns))
        return runqueue_ids, total_scan_steps
