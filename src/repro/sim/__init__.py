"""Discrete-event simulation kernel.

This package is the substrate everything else runs on: an integer-
nanosecond clock, the event engine (heap or calendar queue), seeded RNG
streams and the sharded cell runner.  See DESIGN.md §3.
"""

from repro.sim.clock import SimClock
from repro.sim.engine import Engine
from repro.sim.errors import SchedulingInPastError, SimError
from repro.sim.event import Event, EventPriority
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
)

__all__ = [
    "SimClock",
    "Engine",
    "SimError",
    "SchedulingInPastError",
    "Event",
    "EventPriority",
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
    "format_duration",
]
