"""Time units for the simulation kernel.

All simulated time in this project is carried as an **integer number of
nanoseconds**.  Integers keep event ordering exact (no floating-point
drift across long runs) and make it trivial to express the paper's
nanosecond-scale operations (a HORSE resume is ~150 ns) next to its
second-scale ones (a cold boot is ~1.5 s) without loss of precision.

The helpers below convert human-friendly quantities into nanoseconds and
back.  They accept floats on input (``microseconds(1.1)``) but always
return ``int`` nanoseconds, rounding to the nearest nanosecond.
"""

from __future__ import annotations

NANOSECOND: int = 1
MICROSECOND: int = 1_000
MILLISECOND: int = 1_000_000
SECOND: int = 1_000_000_000


def nanoseconds(value: float) -> int:
    """Return *value* nanoseconds as integer simulated time."""
    return round(value)


def microseconds(value: float) -> int:
    """Return *value* microseconds as integer nanoseconds."""
    return round(value * MICROSECOND)


def milliseconds(value: float) -> int:
    """Return *value* milliseconds as integer nanoseconds."""
    return round(value * MILLISECOND)


def seconds(value: float) -> int:
    """Return *value* seconds as integer nanoseconds."""
    return round(value * SECOND)


def to_microseconds(ns: int) -> float:
    """Convert integer nanoseconds to float microseconds."""
    return ns / MICROSECOND


def format_duration(ns: int) -> str:
    """Render a duration with the most natural unit, e.g. ``'1.10 us'``.

    Used by reports and experiment tables; the unit breakpoints follow
    common systems-paper conventions (ns below 1 us, us below 1 ms, ...).
    """
    if ns < 0:
        return "-" + format_duration(-ns)
    if ns < MICROSECOND:
        return f"{ns} ns"
    if ns < MILLISECOND:
        return f"{ns / MICROSECOND:.2f} us"
    if ns < SECOND:
        return f"{ns / MILLISECOND:.2f} ms"
    return f"{ns / SECOND:.2f} s"
