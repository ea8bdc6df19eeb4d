"""DVFS governor: maps run-queue load to core frequency.

The paper's step 5 matters because the updated load variable "is used
for frequency scaling".  A governor turns a tracked load into a core
frequency.  No host runs one: the governor runs only in the
skip-vs-coalesce ablation (``repro.experiments.ablations_energy``),
which measures the frequency a stale load would pick, and
:func:`sample_violations` backs the ``invariant.dvfs_clock`` checker.
Three modes are provided:

* ``performance`` — pinned to max frequency;
* ``powersave`` — pinned to min frequency;
* ``ondemand`` — frequency interpolates between min and max with the
  load/capacity ratio, the classic load-following policy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List

from repro.hypervisor.load_tracking import DEFAULT_ENTITY_WEIGHT


class GovernorMode(enum.Enum):
    PERFORMANCE = "performance"
    ONDEMAND = "ondemand"
    POWERSAVE = "powersave"


@dataclass(frozen=True)
class FrequencyRange:
    """A core's available frequency envelope, in kHz."""

    min_khz: int
    max_khz: int

    def __post_init__(self) -> None:
        if self.min_khz <= 0 or self.max_khz < self.min_khz:
            raise ValueError(
                f"invalid frequency range {self.min_khz}..{self.max_khz} kHz"
            )

    def clamp(self, khz: float) -> int:
        return int(min(self.max_khz, max(self.min_khz, khz)))


class DvfsGovernor:
    """Chooses a frequency for a core given its run queue's load."""

    def __init__(
        self,
        mode: GovernorMode = GovernorMode.ONDEMAND,
        frequency: FrequencyRange = FrequencyRange(800_000, 2_400_000),
        capacity: float = DEFAULT_ENTITY_WEIGHT,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.mode = mode
        self.frequency = frequency
        self.capacity = capacity
        self.decisions = 0

    def target_khz(self, load: float) -> int:
        """Frequency for a queue currently tracking *load*."""
        self.decisions += 1
        if self.mode is GovernorMode.PERFORMANCE:
            khz = self.frequency.max_khz
        elif self.mode is GovernorMode.POWERSAVE:
            khz = self.frequency.min_khz
        else:
            utilization = min(1.0, max(0.0, load / self.capacity))
            span = self.frequency.max_khz - self.frequency.min_khz
            khz = self.frequency.clamp(self.frequency.min_khz + span * utilization)
        return khz

    def __repr__(self) -> str:
        return (
            f"DvfsGovernor({self.mode.value}, "
            f"{self.frequency.min_khz}-{self.frequency.max_khz} kHz)"
        )


def sample_violations(runqueues: Iterable, now_ns: int) -> List[str]:
    """Clock-sanity problems in the loads a governor would sample.

    The governor's input is each queue's tracked load; a load whose
    ``last_update_ns`` sits *ahead* of the present means some update ran
    on a skewed clock — the next ``decay_to`` will either raise or decay
    by a negative period, and every frequency decision in between reads
    a sample from the future.  Used by the ``repro.check`` registry.
    """
    violations: List[str] = []
    for runqueue in runqueues:
        if runqueue.load.last_update_ns > now_ns:
            violations.append(
                f"runqueue {runqueue.runqueue_id}: load sampled at "
                f"{runqueue.load.last_update_ns} ns, ahead of now={now_ns} ns "
                f"(clock-skewed DVFS input)"
            )
    return violations
