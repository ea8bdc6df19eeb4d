"""Experiment F3 — Figure 3 (paper §5.1): resume time by setup.

Resume a previously paused sandbox under four setups while sweeping
its vCPU count:

* ``vanil`` — the unmodified resume path;
* ``ppsm`` — P2SM only;
* ``coal`` — load-update coalescing only;
* ``horse`` — both mechanisms plus the trimmed command path.

Expectations from the paper: coal improves the resume by 16-20 %, ppsm
by 55-69 %, HORSE by up to ~85 % ("up to 7.16x"), and the HORSE resume
time is flat (~150 ns) in the vCPU count.  (Our measured HORSE ratio
exceeds 7.16x at high vCPU counts — see EXPERIMENTS.md on the paper's
internally inconsistent anchors.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.hot_resume import HorseConfig, HorsePauseResume
from repro.experiments.runner import (
    DEFAULT_REPETITIONS,
    VCPU_SWEEP,
    RepeatedMeasurement,
    fresh_platform,
)
from repro.hypervisor.sandbox import Sandbox

#: Setup name -> HorseConfig (None = the vanilla path).
SETUPS: Dict[str, HorseConfig | None] = {
    "vanil": None,
    "ppsm": HorseConfig.ppsm_only(),
    "coal": HorseConfig.coalescing_only(),
    "horse": HorseConfig.full(),
}


@dataclass
class Figure3Result:
    """Resume-time series per setup over the vCPU sweep."""

    #: setup -> vcpus -> measurement (ns)
    series: Dict[str, Dict[int, RepeatedMeasurement]] = field(default_factory=dict)
    platform: str = "firecracker"

    def mean_ns(self, setup: str, vcpus: int) -> float:
        return self.series[setup][vcpus].mean

    def vcpu_counts(self) -> List[int]:
        any_setup = next(iter(self.series.values()))
        return sorted(any_setup)

    def improvement(self, setup: str, vcpus: int) -> float:
        """Fractional resume-time improvement of *setup* over vanil."""
        vanil = self.mean_ns("vanil", vcpus)
        return 1.0 - self.mean_ns(setup, vcpus) / vanil

    def speedup(self, setup: str, vcpus: int) -> float:
        return self.mean_ns("vanil", vcpus) / self.mean_ns(setup, vcpus)

    def max_improvement(self, setup: str) -> float:
        return max(self.improvement(setup, v) for v in self.vcpu_counts())

    def min_improvement(self, setup: str) -> float:
        return min(self.improvement(setup, v) for v in self.vcpu_counts())

    def horse_flatness(self) -> float:
        """max/min HORSE resume time across the sweep (1.0 = flat)."""
        values = [self.mean_ns("horse", v) for v in self.vcpu_counts()]
        return max(values) / min(values)

    def rows(self) -> List[Dict[str, object]]:
        """One row per (setup, vCPU count)."""
        return [
            {"setup": setup, "vcpus": vcpus, "mean_ns": self.mean_ns(setup, vcpus)}
            for setup in sorted(self.series)
            for vcpus in self.vcpu_counts()
        ]


def _resume_once(
    platform: str, config: HorseConfig | None, vcpus: int, memory_mb: int
) -> int:
    """One repetition: fresh platform, pause via the setup's path,
    resume, return total ns."""
    virt = fresh_platform(platform)
    sandbox = Sandbox(vcpus=vcpus, memory_mb=memory_mb, is_ull=config is not None)
    virt.vanilla.place_initial(sandbox, 0)
    if config is None:
        virt.vanilla.pause(sandbox, 0)
        return virt.vanilla.resume(sandbox, 0).total_ns
    horse = HorsePauseResume(virt.host, virt.policy, virt.costs, config=config)
    horse.pause(sandbox, 0)
    return horse.resume(sandbox, 0).total_ns


def run_figure3(
    vcpu_counts: Sequence[int] = VCPU_SWEEP,
    repetitions: int = DEFAULT_REPETITIONS,
    platform: str = "firecracker",
    memory_mb: int = 512,
    setups: Dict[str, HorseConfig | None] | None = None,
) -> Figure3Result:
    result = Figure3Result(platform=platform)
    for name, config in (setups or SETUPS).items():
        result.series[name] = {}
        for vcpus in vcpu_counts:
            measurement = RepeatedMeasurement(f"{name}/{vcpus}")
            for _ in range(repetitions):
                measurement.add(_resume_once(platform, config, vcpus, memory_mb))
            result.series[name][vcpus] = measurement
    return result
