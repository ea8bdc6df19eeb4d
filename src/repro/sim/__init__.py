"""Discrete-event simulation kernel.

This package is the substrate everything else runs on: an integer-
nanosecond clock, an event heap, generator-based processes, simulated
locks/semaphores, and seeded RNG streams.  See DESIGN.md §3.
"""

from repro.sim.clock import SimClock
from repro.sim.engine import Engine
from repro.sim.errors import (
    EngineStoppedError,
    ProcessError,
    ResourceError,
    SchedulingInPastError,
    SimError,
)
from repro.sim.event import Event, EventPriority
from repro.sim.process import Join, Process, Sleep, Spawn, Wait, Waitable, spawn
from repro.sim.resources import SimLock, SimSemaphore
from repro.sim.rng import RngRegistry
from repro.sim.sharding import (
    assign_cells,
    merge_records,
    merged_pending,
    windowed_run,
)
from repro.sim.units import (
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    SECOND,
    format_duration,
    microseconds,
    milliseconds,
    nanoseconds,
    seconds,
    to_microseconds,
    to_milliseconds,
    to_seconds,
)

__all__ = [
    "SimClock",
    "Engine",
    "SimError",
    "SchedulingInPastError",
    "EngineStoppedError",
    "ProcessError",
    "ResourceError",
    "Event",
    "EventPriority",
    "Process",
    "Sleep",
    "Wait",
    "Spawn",
    "Join",
    "Waitable",
    "spawn",
    "SimLock",
    "SimSemaphore",
    "RngRegistry",
    "assign_cells",
    "merge_records",
    "merged_pending",
    "windowed_run",
    "NANOSECOND",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "nanoseconds",
    "microseconds",
    "milliseconds",
    "seconds",
    "to_microseconds",
    "to_milliseconds",
    "to_seconds",
    "format_duration",
]
