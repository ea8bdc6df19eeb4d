"""Shared experiment machinery.

Every experiment driver follows the paper's procedure: repeat the
measurement (10x by default, "enough for us to achieve 95% confidence
interval <= 3%"), vary one parameter, and summarize with mean + CI.
This module holds the paper's repetition count and vCPU sweep, the
mean + CI accumulator each driver fills in its own repetition loop, and
small helpers for building fresh fixtures so repetitions never share
mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.hypervisor.platform import VirtualizationPlatform, platform_by_name
from repro.hypervisor.sandbox import Sandbox
from repro.metrics.stats import ConfidenceInterval, confidence_interval_95

#: The paper's repetition count.
DEFAULT_REPETITIONS = 10

#: The vCPU sweep of Figures 2/3 and the §5.2/§5.4 studies.
VCPU_SWEEP = (1, 2, 4, 8, 16, 24, 36)


@dataclass
class RepeatedMeasurement:
    """Mean/CI over repetitions of one scalar measurement."""

    label: str
    values: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def mean(self) -> float:
        if not self.values:
            raise ValueError(f"{self.label}: no values recorded")
        return sum(self.values) / len(self.values)

    @property
    def ci95(self) -> ConfidenceInterval:
        return confidence_interval_95(self.values)


def fresh_platform(name: str = "firecracker", **kwargs) -> VirtualizationPlatform:
    """A brand-new hypervisor instance (no shared run-queue state)."""
    return platform_by_name(name, **kwargs)


def paused_sandbox(
    virt: VirtualizationPlatform, vcpus: int, memory_mb: int = 512
) -> Sandbox:
    """Create, place, and vanilla-pause one sandbox at t=0."""
    sandbox = Sandbox(vcpus=vcpus, memory_mb=memory_mb)
    virt.vanilla.place_initial(sandbox, 0)
    virt.vanilla.pause(sandbox, 0)
    return sandbox

