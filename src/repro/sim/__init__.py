"""Discrete-event simulation kernel.

This package is the substrate everything else runs on: an integer-
nanosecond clock, the event engine (one binary heap), seeded RNG
streams and the sharded cell runner.  See DESIGN.md §3.
"""

from repro import lazy_exports

_EXPORTS = {
    "SimClock": "repro.sim.clock",
    "Engine": "repro.sim.engine",
    "EngineClosedError": "repro.sim.errors",
    "SchedulingInPastError": "repro.sim.errors",
    "SimError": "repro.sim.errors",
    "Event": "repro.sim.event",
    "EventPriority": "repro.sim.event",
    "RngRegistry": "repro.sim.rng",
    "assign_cells": "repro.sim.sharding",
    "merge_records": "repro.sim.sharding",
    "merged_pending": "repro.sim.sharding",
    "windowed_run": "repro.sim.sharding",
    "MICROSECOND": "repro.sim.units",
    "MILLISECOND": "repro.sim.units",
    "NANOSECOND": "repro.sim.units",
    "SECOND": "repro.sim.units",
    "format_duration": "repro.sim.units",
    "microseconds": "repro.sim.units",
    "milliseconds": "repro.sim.units",
    "nanoseconds": "repro.sim.units",
    "seconds": "repro.sim.units",
    "to_microseconds": "repro.sim.units",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
