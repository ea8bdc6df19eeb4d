"""Per-phase breakdown recorders.

:class:`BreakdownRecorder` accumulates per-phase durations for a
multi-step operation (the resume path's steps 1-6), keeping both the
absolute nanoseconds and the share of the total, which is exactly what
the paper's Figure 2 plots.  It keeps raw samples for exact statistics;
streaming latency metrics belong in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Breakdown:
    """One multi-step operation's per-phase durations (ns)."""

    phases: Dict[str, int] = field(default_factory=dict)

    def add(self, phase: str, duration_ns: int) -> None:
        if duration_ns < 0:
            raise ValueError(f"negative duration for phase {phase!r}: {duration_ns}")
        self.phases[phase] = self.phases.get(phase, 0) + duration_ns

    @property
    def total_ns(self) -> int:
        return sum(self.phases.values())

    def share(self, phase: str) -> float:
        """Fraction of the total spent in *phase* (0.0 if total is 0)."""
        total = self.total_ns
        if total == 0:
            return 0.0
        return self.phases.get(phase, 0) / total


class BreakdownRecorder:
    """Accumulates many Breakdowns and averages them per phase."""

    def __init__(self) -> None:
        self._breakdowns: List[Breakdown] = []

    def record(self, breakdown: Breakdown) -> None:
        self._breakdowns.append(breakdown)

    def __len__(self) -> int:
        return len(self._breakdowns)

    def mean_phase_ns(self) -> Dict[str, float]:
        """Mean duration per phase across all recorded breakdowns."""
        if not self._breakdowns:
            return {}
        sums: Dict[str, int] = defaultdict(int)
        for breakdown in self._breakdowns:
            for phase, duration in breakdown.phases.items():
                sums[phase] += duration
        count = len(self._breakdowns)
        return {phase: total / count for phase, total in sums.items()}

    def mean_total_ns(self) -> float:
        if not self._breakdowns:
            return 0.0
        return sum(b.total_ns for b in self._breakdowns) / len(self._breakdowns)

    def mean_shares(self) -> Dict[str, float]:
        """Per-phase share of the mean total (sums to 1.0)."""
        means = self.mean_phase_ns()
        total = sum(means.values())
        if total == 0:
            return {phase: 0.0 for phase in means}
        return {phase: value / total for phase, value in means.items()}
