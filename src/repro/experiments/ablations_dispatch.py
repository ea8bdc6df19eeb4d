"""Dispatcher-driven interference ablation (mechanistic §5.4 check).

The colocation experiment (``repro.experiments.colocation``) injects
merge-thread interference *stochastically* (spill probability x 30 us
penalty).  This ablation validates that model mechanistically: it runs
long-running work as real :class:`~repro.hypervisor.dispatch.WorkItem`
jobs on per-core dispatchers, and each HORSE resume's merge thread
preempts a victim core through the dispatcher's priority-preemption
path (``CoreDispatcher.preempt``), exactly as §4.1.3 describes ("merge
threads are given the highest priority to preempt any task on the run
queue where it is scheduled").

The measured victim delay per preemption is then compared with the
stochastic model's penalty constant, and the completion-time
distribution shows the same mean-intact / tail-only signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.hot_resume import HorsePauseResume
from repro.experiments.runner import fresh_platform
from repro.hypervisor.dispatch import HostDispatcher, WorkItem
from repro.hypervisor.sandbox import Sandbox
from repro.hypervisor.vcpu import Vcpu
from repro.metrics.stats import mean, percentile
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import SECOND, milliseconds, seconds, to_microseconds


@dataclass
class DispatchInterferenceResult:
    jobs: int
    resumes: int
    preemptions: int
    delay_per_preemption_us: float
    mean_completion_ms: float
    p99_completion_ms: float
    baseline_mean_completion_ms: float
    baseline_p99_completion_ms: float

    @property
    def mean_delta_us(self) -> float:
        return 1000.0 * (self.mean_completion_ms - self.baseline_mean_completion_ms)

    @property
    def p99_delta_us(self) -> float:
        return 1000.0 * (self.p99_completion_ms - self.baseline_p99_completion_ms)


def _run_jobs(
    with_interference: bool,
    jobs: int,
    job_ns: int,
    resumes: int,
    resume_period_ns: int,
    spill_every: int,
    seed: int,
) -> tuple:
    """Run *jobs* fixed-size work items; optionally strike cores with
    merge-thread preemptions on a deterministic cadence."""
    engine = Engine()
    virt = fresh_platform("firecracker")
    dispatcher = HostDispatcher(engine, virt.host, virt.policy, virt.costs)
    horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
    rng = RngRegistry(seed).stream("victims")

    completions: List[int] = []
    busy_cores: List[int] = []
    for index in range(jobs):
        vcpu = Vcpu(index=0, sandbox_id=f"job-{index}")
        item = WorkItem(
            vcpu=vcpu,
            remaining_ns=job_ns,
            on_complete=lambda it: completions.append(it.completed_at),
        )
        core = dispatcher.submit_to_least_busy(item)
        busy_cores.append(core.runqueue.core_id)

    preemptions = 0
    delays: List[int] = []

    def do_resume(index: int) -> None:
        nonlocal preemptions
        sandbox = Sandbox(vcpus=4, memory_mb=128, is_ull=True)
        virt.vanilla.place_initial(sandbox, engine.now)
        horse.pause(sandbox, engine.now)
        horse.resume(sandbox, engine.now)
        if with_interference and (index + 1) % spill_every == 0:
            # One merge thread spills onto a busy general core: strike
            # through the dispatcher's priority-preemption path.
            victim_core = rng.choice(busy_cores)
            delay = dispatcher.core(victim_core).preempt(
                round(virt.costs.p2sm_merge_cost_ns(4))
            )
            if delay > 0:
                preemptions += 1
                delays.append(delay)

    for index in range(resumes):
        engine.schedule_at(
            milliseconds(1) + index * resume_period_ns,
            lambda index=index: do_resume(index),
        )
    engine.run(until=seconds(30))

    completion_ms = [c / 1e6 for c in completions]
    return completion_ms, preemptions, delays


def run_dispatch_interference(
    jobs: int = 40,
    job_ms: int = 2_000,
    resumes: int = 40,
    resumes_per_second: int = 10,
    spill_every: int = 2,
    seed: int = 0,
) -> DispatchInterferenceResult:
    job_ns = milliseconds(job_ms)
    period = SECOND // resumes_per_second
    baseline, _, _ = _run_jobs(
        False, jobs, job_ns, resumes, period, spill_every, seed
    )
    disturbed, preemptions, delays = _run_jobs(
        True, jobs, job_ns, resumes, period, spill_every, seed
    )
    return DispatchInterferenceResult(
        jobs=jobs,
        resumes=resumes,
        preemptions=preemptions,
        delay_per_preemption_us=(
            to_microseconds(round(mean(delays))) if delays else 0.0
        ),
        mean_completion_ms=mean(disturbed),
        p99_completion_ms=percentile(disturbed, 99),
        baseline_mean_completion_ms=mean(baseline),
        baseline_p99_completion_ms=percentile(baseline, 99),
    )
