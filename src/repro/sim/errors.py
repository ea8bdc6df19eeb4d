"""Exception hierarchy for the simulation kernel.

Every error raised by :mod:`repro.sim` derives from :class:`SimError` so
callers can catch simulation-kernel failures without masking unrelated
bugs in experiment code.
"""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulation-kernel errors."""


class SchedulingInPastError(SimError):
    """An event was scheduled before the current simulated time."""
