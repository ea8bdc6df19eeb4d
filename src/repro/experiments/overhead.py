"""Experiment OV — the §5.2 overhead study.

Procedure (paper): on a server already running 10 1-vCPU sandboxes
(each busy with sysbench), successively create 10 uLL sandboxes, pause
them for 5 seconds, then resume them; sweep the uLL sandboxes' vCPU
count 1 -> 36; sample CPU and memory usage every 500 ms; governor in
performance mode.  Compare HORSE against the vanilla pause/resume.
The performance governor is the paper's setup and is not modelled:
simulated work is charged in ns, whatever the clock.

Paper anchors:

* memory: +~528 KB for the 10 paused sandboxes' P2SM structures
  (~0.01 % of the ~5 GB used by the running sandboxes — the paper
  prints "0.11 %", which does not match its own 528 KB / 5 GB figures;
  we report the arithmetic-consistent value);
* CPU: pause-phase increase <= 0.3 %, resume-phase increase <= 2.7 %,
  both "less than 1 %" in the headline claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.hot_resume import HorseConfig, HorsePauseResume
from repro.experiments.runner import VCPU_SWEEP, fresh_platform
from repro.hypervisor.sandbox import Sandbox
from repro.metrics.usage import CpuWorkTracker, UsageSampler
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import milliseconds, seconds
from repro.workloads import SysbenchCpuWorkload, ull_workloads

#: §5.2 constants from the paper.
BACKGROUND_SANDBOXES = 10
ULL_SANDBOXES = 10
PAUSE_HOLD_NS = seconds(5)
SAMPLE_PERIOD_NS = milliseconds(500)
SANDBOX_MEMORY_MB = 512
#: Creation spacing for the "successively create" step.
CREATE_SPACING_NS = milliseconds(200)


@dataclass
class PhaseUsage:
    """CPU work charged in one lifecycle phase (core-ns totals)."""

    pause_work_ns: float = 0.0
    resume_work_ns: float = 0.0
    refresh_work_ns: float = 0.0
    workload_work_ns: float = 0.0


@dataclass
class OverheadRunResult:
    """One mode's run at one vCPU count."""

    mode: str
    ull_vcpus: int
    usage: PhaseUsage
    extra_memory_bytes: int
    running_memory_bytes: int
    samples: int

    @property
    def memory_overhead_pct(self) -> float:
        if self.running_memory_bytes == 0:
            return 0.0
        return 100.0 * self.extra_memory_bytes / self.running_memory_bytes


@dataclass
class OverheadResult:
    """HORSE vs vanilla across the vCPU sweep."""

    #: (mode, vcpus) -> run result
    runs: Dict[tuple, OverheadRunResult] = field(default_factory=dict)
    cores: int = 72

    def run(self, mode: str, vcpus: int) -> OverheadRunResult:
        return self.runs[(mode, vcpus)]

    def vcpu_counts(self) -> List[int]:
        return sorted({key[1] for key in self.runs})

    def memory_delta_bytes(self, vcpus: int) -> int:
        return (
            self.run("horse", vcpus).extra_memory_bytes
            - self.run("vanilla", vcpus).extra_memory_bytes
        )

    def pause_cpu_delta_pct(self, vcpus: int) -> float:
        """HORSE-minus-vanilla pause-phase CPU work, as % of one
        sampling window across all cores."""
        horse = self.run("horse", vcpus)
        vanil = self.run("vanilla", vcpus)
        delta = horse.usage.pause_work_ns - vanil.usage.pause_work_ns
        return 100.0 * delta / (SAMPLE_PERIOD_NS * self.cores)

    def resume_cpu_delta_pct(self, vcpus: int) -> float:
        horse = self.run("horse", vcpus)
        vanil = self.run("vanilla", vcpus)
        delta = (
            horse.usage.resume_work_ns
            + horse.usage.refresh_work_ns
            - vanil.usage.resume_work_ns
        )
        return 100.0 * delta / (SAMPLE_PERIOD_NS * self.cores)

    def rows(self) -> List[Dict[str, object]]:
        """One row per vCPU count: the HORSE-minus-vanilla deltas."""
        return [
            {
                "vcpus": vcpus,
                "memory_delta_bytes": self.memory_delta_bytes(vcpus),
                "pause_cpu_delta_pct": self.pause_cpu_delta_pct(vcpus),
                "resume_cpu_delta_pct": self.resume_cpu_delta_pct(vcpus),
            }
            for vcpus in self.vcpu_counts()
        ]


def render_overhead(result: OverheadResult) -> str:
    return "\n".join(
        f"uLL vCPUs={row['vcpus']}: mem delta "
        f"{row['memory_delta_bytes'] / 1000:.1f} kB, "
        f"pause CPU {row['pause_cpu_delta_pct']:.6f} %, "
        f"resume CPU {row['resume_cpu_delta_pct']:.6f} %"
        for row in result.rows()
    )


def _run_one(
    mode: str, ull_vcpus: int, seed: int, platform: str = "firecracker"
) -> OverheadRunResult:
    """One full §5.2 timeline in one mode ('vanilla' or 'horse')."""
    engine = Engine()
    virt = fresh_platform(platform)
    rngs = RngRegistry(seed)
    tracker = CpuWorkTracker()
    costs = virt.costs

    # -- background: 10 busy 1-vCPU sysbench sandboxes ------------------
    sysbench = SysbenchCpuWorkload()
    for _ in range(BACKGROUND_SANDBOXES):
        sandbox = Sandbox(vcpus=1, memory_mb=SANDBOX_MEMORY_MB)
        virt.host.allocate_memory(SANDBOX_MEMORY_MB)
        virt.vanilla.place_initial(sandbox, engine.now)

    horse: Optional[HorsePauseResume] = None
    if mode == "horse":
        horse = HorsePauseResume(
            virt.host, virt.policy, virt.costs, config=HorseConfig.full()
        )
    elif mode != "vanilla":
        raise ValueError(f"unknown mode {mode!r}")

    sampler = UsageSampler(engine, SAMPLE_PERIOD_NS)
    sampler.add_gauge("machinery_work_ns", tracker.gauge("machinery"))
    sampler.add_gauge("workload_work_ns", tracker.gauge("workload"))
    sampler.start()

    usage = PhaseUsage()
    extra_memory_peak = 0
    workloads = ull_workloads()
    paused_boxes: List[Sandbox] = []

    def create_and_pause(index: int) -> None:
        nonlocal extra_memory_peak
        sandbox = Sandbox(
            vcpus=ull_vcpus, memory_mb=SANDBOX_MEMORY_MB, is_ull=True
        )
        virt.host.allocate_memory(SANDBOX_MEMORY_MB)
        virt.vanilla.place_initial(sandbox, engine.now)
        if horse is not None:
            pause = horse.pause(sandbox, engine.now)
        else:
            pause = virt.vanilla.pause(sandbox, engine.now)
        usage.pause_work_ns += pause.duration_ns
        tracker.charge("machinery", pause.duration_ns)
        paused_boxes.append(sandbox)
        if horse is not None:
            extra_memory_peak = max(
                extra_memory_peak,
                sum(
                    costs.horse_memory_bytes(b.vcpu_count)
                    for b in paused_boxes
                    if b.assigned_ull_runqueue is not None
                ),
            )
        engine.schedule_after(PAUSE_HOLD_NS, lambda: resume(sandbox, index))

    def resume(sandbox: Sandbox, index: int) -> None:
        refresh_before = (
            horse.ull.refresh_entries_touched if horse is not None else 0
        )
        if horse is not None:
            result = horse.resume(sandbox, engine.now)
            # Merge threads run in parallel: wall time is O(1) but CPU
            # *work* is one dispatch + two writes per thread.
            thread_work = result.merge_threads * (
                costs.p2sm_thread_dispatch_ns + 2 * costs.p2sm_pointer_write_ns
            )
            usage.resume_work_ns += result.total_ns + thread_work
            tracker.charge("machinery", result.total_ns + thread_work)
            refresh_entries = horse.ull.refresh_entries_touched - refresh_before
            refresh_ns = refresh_entries * costs.p2sm_refresh_entry_ns
            usage.refresh_work_ns += refresh_ns
            tracker.charge("machinery", refresh_ns)
        else:
            result = virt.vanilla.resume(sandbox, engine.now)
            usage.resume_work_ns += result.total_ns
            tracker.charge("machinery", result.total_ns)
        # The uLL workload runs right after resume on every vCPU.
        workload = workloads[index % len(workloads)]
        exec_ns = workload.sample_duration_ns(rngs.stream(f"wl-{index}"))
        work = exec_ns * sandbox.vcpu_count
        usage.workload_work_ns += work
        tracker.charge("workload", work)

    for index in range(ULL_SANDBOXES):
        engine.schedule_at(
            index * CREATE_SPACING_NS,
            lambda index=index: create_and_pause(index),
        )

    horizon = ULL_SANDBOXES * CREATE_SPACING_NS + PAUSE_HOLD_NS + seconds(1)
    engine.run(until=horizon)
    sampler.stop()

    running_memory = BACKGROUND_SANDBOXES * SANDBOX_MEMORY_MB * 1024 * 1024
    return OverheadRunResult(
        mode=mode,
        ull_vcpus=ull_vcpus,
        usage=usage,
        extra_memory_bytes=extra_memory_peak,
        running_memory_bytes=running_memory,
        samples=len(sampler.samples),
    )


def run_overhead(
    vcpu_counts: Sequence[int] = VCPU_SWEEP,
    seed: int = 0,
    platform: str = "firecracker",
) -> OverheadResult:
    result = OverheadResult()
    for vcpus in vcpu_counts:
        for mode in ("vanilla", "horse"):
            result.runs[(mode, vcpus)] = _run_one(mode, vcpus, seed, platform)
    result.cores = fresh_platform(platform).host.spec.total_cores
    return result
