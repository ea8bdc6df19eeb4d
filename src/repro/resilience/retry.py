"""Retry, backoff, and hedging constants (all times simulated ns).

Backoff is capped exponential with *full jitter* drawn from a seeded
stream (AWS Architecture Blog's recommendation for thundering-herd
avoidance): ``delay = U(base/2, base) * multiplier^attempt``, clamped to
:data:`MAX_BACKOFF_NS`.  Jitter comes from a :class:`random.Random` the
caller owns, so two same-seed runs back off identically — the
determinism contract of the whole simulator.

Hedged (tied) requests are the tail-taming trick of "The Tail at
Scale": for uLL-class functions, if the primary attempt has not
completed after :data:`HEDGE_DELAY_NS`, a secondary attempt is launched
on a *different* node and the first completion wins.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.sim.units import microseconds, milliseconds

#: total attempt budget per request, primary included (hedges are
#: budgeted separately by :data:`MAX_HEDGES`)
MAX_ATTEMPTS = 4
BASE_BACKOFF_NS = microseconds(50)
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF_NS = milliseconds(5)
#: how long to wait before declaring an attempt hung (no completion)
HANG_TIMEOUT_NS = milliseconds(10)

#: primary-attempt age at which the hedge fires
HEDGE_DELAY_NS = milliseconds(1)
#: hedge attempts per request (on top of the retry budget)
MAX_HEDGES = 1

#: Ceiling per attempt number.  The no-host rewait loop asks for it tens
#: of thousands of times per chaos run, and float pow per call adds up.
_CEILINGS: Dict[int, float] = {}


def backoff_ns(attempt: int, rng: random.Random) -> int:
    """Jittered delay before retry number *attempt* (1-based: the delay
    taken after the first failed attempt is ``attempt=1``)."""
    ceiling = _CEILINGS.get(attempt)
    if ceiling is None:
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        ceiling = min(
            float(MAX_BACKOFF_NS),
            BASE_BACKOFF_NS * BACKOFF_MULTIPLIER ** (attempt - 1),
        )
        _CEILINGS[attempt] = ceiling
    # Full jitter over the upper half keeps delays spread but never
    # degenerate-small (a zero backoff would retry the same instant
    # the failure happened).
    return round(ceiling * (0.5 + 0.5 * rng.random()))
