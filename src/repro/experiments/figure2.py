"""Experiment F2 — Figure 2 (paper §3.2): resume-cost breakdown.

Manually pause then resume a sandbox on the vanilla path while varying
its vCPU allocation from 1 to 36, recording the time each of the six
resume steps takes.  The paper's findings, which this driver verifies:

* steps 4 (sorted merge) + 5 (load update) account for 87.5-93.1 % of
  the resume;
* their contribution grows with the sandbox's vCPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.runner import (
    DEFAULT_REPETITIONS,
    VCPU_SWEEP,
    fresh_platform,
    paused_sandbox,
)
from repro.hypervisor.pause_resume import HOT_STEPS
from repro.metrics.recorder import BreakdownRecorder


@dataclass
class BreakdownPoint:
    """Mean per-step costs at one vCPU count."""

    vcpus: int
    mean_total_ns: float
    mean_step_ns: Dict[str, float]
    step_shares: Dict[str, float]

    @property
    def hot_share(self) -> float:
        """Combined share of steps 4+5 (the paper's 87.5-93.1 % band)."""
        return sum(self.step_shares.get(step, 0.0) for step in HOT_STEPS)


@dataclass
class Figure2Result:
    points: List[BreakdownPoint] = field(default_factory=list)
    platform: str = "firecracker"

    def vcpu_counts(self) -> List[int]:
        return [p.vcpus for p in self.points]

    def hot_shares(self) -> List[float]:
        return [p.hot_share for p in self.points]

    def point(self, vcpus: int) -> BreakdownPoint:
        for p in self.points:
            if p.vcpus == vcpus:
                return p
        raise KeyError(f"no breakdown point for {vcpus} vCPUs")

    def rows(self) -> List[Dict[str, object]]:
        """One row per vCPU count, with each step's mean."""
        rows = []
        for point in self.points:
            row: Dict[str, object] = {
                "vcpus": point.vcpus,
                "mean_total_ns": point.mean_total_ns,
                "hot_share": point.hot_share,
            }
            for step, mean_ns in sorted(point.mean_step_ns.items()):
                row[f"step_{step}_ns"] = mean_ns
            rows.append(row)
        return rows


def run_figure2(
    vcpu_counts: Sequence[int] = VCPU_SWEEP,
    repetitions: int = DEFAULT_REPETITIONS,
    platform: str = "firecracker",
    memory_mb: int = 512,
) -> Figure2Result:
    """Collect the vanilla resume breakdown over the vCPU sweep."""
    result = Figure2Result(platform=platform)
    for vcpus in vcpu_counts:
        recorder = BreakdownRecorder()
        for _ in range(repetitions):
            virt = fresh_platform(platform)
            sandbox = paused_sandbox(virt, vcpus=vcpus, memory_mb=memory_mb)
            resume = virt.vanilla.resume(sandbox, 0)
            recorder.record(resume.breakdown)
        result.points.append(
            BreakdownPoint(
                vcpus=vcpus,
                mean_total_ns=recorder.mean_total_ns(),
                mean_step_ns=recorder.mean_phase_ns(),
                step_shares=recorder.mean_shares(),
            )
        )
    return result
