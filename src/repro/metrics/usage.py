"""CPU and memory usage sampling for the overhead study (paper §5.2).

The paper records host CPU and memory usage every 500 ms while pausing
and resuming uLL sandboxes.  :class:`UsageSampler` reproduces that: it
installs a periodic event on the simulation engine that snapshots
whatever gauges it is given.

Gauges are plain callables returning a float, so the hypervisor can
expose "busy core fraction" and "bytes allocated" without this module
knowing anything about hypervisors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Engine
from repro.sim.event import Event, EventPriority

Gauge = Callable[[], float]


@dataclass(frozen=True)
class UsageSample:
    """One sampling instant: time plus every gauge's reading."""

    time_ns: int
    readings: Dict[str, float]


class CpuWorkTracker:
    """Accumulates CPU work (core-nanoseconds) by labeled phase.

    The §5.2 overhead study charges every pause, resume, merge-thread
    and precompute-refresh operation here; utilization over a sampling
    window is then ``work_in_window / (cores * window)``.  The tracker
    stores cumulative totals — samplers snapshot them and the analysis
    diffs consecutive snapshots.
    """

    def __init__(self) -> None:
        self._cumulative: Dict[str, float] = {}

    def charge(self, phase: str, core_ns: float) -> None:
        if core_ns < 0:
            raise ValueError(f"negative work {core_ns} for phase {phase!r}")
        self._cumulative[phase] = self._cumulative.get(phase, 0.0) + core_ns

    def total(self, phase: str) -> float:
        return self._cumulative.get(phase, 0.0)

    def phases(self) -> Dict[str, float]:
        return dict(self._cumulative)

    def gauge(self, phase: str) -> Gauge:
        """A sampler gauge reading this phase's cumulative counter."""
        return lambda: self.total(phase)


class UsageSampler:
    """Samples a set of named gauges at a fixed simulated period."""

    def __init__(self, engine: Engine, period_ns: int) -> None:
        if period_ns <= 0:
            raise ValueError(f"sampling period must be positive, got {period_ns}")
        self._engine = engine
        self.period_ns = period_ns
        self._gauges: Dict[str, Gauge] = {}
        self.samples: List[UsageSample] = []
        self._next_event: Optional[Event] = None
        self._running = False

    def add_gauge(self, name: str, gauge: Gauge) -> None:
        if name in self._gauges:
            raise ValueError(f"gauge {name!r} already registered")
        self._gauges[name] = gauge

    def start(self) -> None:
        """Begin sampling; the first sample is taken one period from now."""
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None

    def _schedule_next(self) -> None:
        self._next_event = self._engine.schedule_after(
            self.period_ns,
            self._take_sample,
            priority=EventPriority.BACKGROUND,
            label="usage-sample",
        )

    def _take_sample(self) -> None:
        if not self._running:
            return
        readings = {name: gauge() for name, gauge in self._gauges.items()}
        self.samples.append(UsageSample(time_ns=self._engine.now, readings=readings))
        self._schedule_next()

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def series(self, name: str) -> List[float]:
        """All recorded readings for gauge *name*, in time order."""
        return [s.readings[name] for s in self.samples if name in s.readings]

    def peak(self, name: str) -> float:
        values = self.series(name)
        if not values:
            raise KeyError(f"no samples for gauge {name!r}")
        return max(values)

    def mean(self, name: str) -> float:
        values = self.series(name)
        if not values:
            raise KeyError(f"no samples for gauge {name!r}")
        return sum(values) / len(values)
