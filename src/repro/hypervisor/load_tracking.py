"""PELT-style run-queue load tracking.

The paper (step 5 of the resume process) observes that placing a paused
vCPU on a run queue always updates the queue's load as an affine map
``L(x) = alpha * x + beta`` — the shape of per-entity load tracking
(PELT, Turner 2011) when folding a newly runnable entity into the
queue's aggregate.  That affine shape is precisely what makes HORSE's
coalescing possible.

This module implements a faithful small PELT:

* load decays geometrically with elapsed wall time, half-life of 32
  periods of ~1 ms (``DECAY_FACTOR`` per period, ``y**32 = 0.5``);
* enqueueing an entity of weight *w* applies ``L <- y * L + w * (1-y)``
  (decay one period, then blend the entity's contribution in), i.e.
  ``alpha = y`` and ``beta = w * (1 - y)``.

In the kernel, the DVFS governor reads the tracked load to pick core
frequencies; here only the skip-vs-coalesce ablation runs a governor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from repro.core.coalesce import AffineUpdate, CoalescedUpdate

#: One PELT accounting period (ns) — Linux uses 1024 us; 1 ms here.
PELT_PERIOD_NS = 1_000_000

#: Per-period geometric decay: y such that y**32 == 0.5.
DECAY_FACTOR = 0.5 ** (1.0 / 32.0)

#: Default schedulable-entity weight (Linux NICE_0_LOAD spirit).
DEFAULT_ENTITY_WEIGHT = 1024.0


@dataclass(slots=True)
class RunqueueLoad:
    """Tracked load of one run queue.

    ``value`` is the decayed aggregate load; ``last_update_ns`` the
    simulated instant of the last fold.  All mutation goes through
    :meth:`decay_to` / :meth:`enqueue_entity` so the affine invariants
    hold everywhere.

    Fold counts are batched as plain ints instead of per-event metric
    increments; :class:`repro.hypervisor.platform.CountExport` exports
    the deltas at snapshot time, so the fold hot path carries no
    observability cost at all.
    """

    value: float = 0.0
    last_update_ns: int = 0
    #: Batched bookkeeping, exported via a registry collector.
    folds_iterated: int = 0
    folds_coalesced: int = 0

    def decay_to(self, now_ns: int) -> None:
        """Decay the aggregate for the periods elapsed since last update."""
        if now_ns < self.last_update_ns:
            raise ValueError(
                f"load update moving backwards: {self.last_update_ns} -> {now_ns}"
            )
        periods = (now_ns - self.last_update_ns) / PELT_PERIOD_NS
        if periods > 0:
            self.value *= DECAY_FACTOR ** periods
        self.last_update_ns = now_ns

    def enqueue_update(self, weight: float = DEFAULT_ENTITY_WEIGHT) -> AffineUpdate:
        """The affine update applied when enqueueing one entity."""
        return AffineUpdate(alpha=DECAY_FACTOR, beta=weight * (1.0 - DECAY_FACTOR))

    def enqueue_entity(self, now_ns: int, weight: float = DEFAULT_ENTITY_WEIGHT) -> None:
        """Fold one newly runnable entity into the aggregate (vanilla path).

        ``enqueue_update(weight).apply(value)`` written out, so a fold
        allocates nothing: the same float expression, bit for bit.
        """
        self.decay_to(now_ns)
        self.value = DECAY_FACTOR * self.value + weight * (1.0 - DECAY_FACTOR)
        self.folds_iterated += 1

    def apply_coalesced(self, now_ns: int, alpha_n: float, beta_sum: float) -> None:
        """Apply a precomputed n-fold fused update (HORSE path)."""
        self.decay_to(now_ns)
        self.value = alpha_n * self.value + beta_sum
        self.folds_coalesced += 1

    def dequeue_entity(self, now_ns: int, weight: float = DEFAULT_ENTITY_WEIGHT) -> None:
        """Remove one entity's contribution (used when pausing).

        PELT removal is approximate (blocked load decays away); we model
        it as subtracting the steady-state contribution, floored at 0.
        """
        self.decay_to(now_ns)
        self.value = max(0.0, self.value - weight * (1.0 - DECAY_FACTOR))

    def dequeue_entities(self, now_ns: int, weights: Sequence[float]) -> None:
        """Remove several entities at one instant, in the order given.

        One decay, then :meth:`dequeue_entity`'s subtraction per weight:
        the same floats as one call per weight, whose later decays span
        zero periods.
        """
        self.decay_to(now_ns)
        value = self.value
        for weight in weights:
            value = max(0.0, value - weight * (1.0 - DECAY_FACTOR))
        self.value = value


@functools.lru_cache(maxsize=128)
def coalesced_enqueue_update(n: int) -> CoalescedUpdate:
    """The fused update for *n* default-weight enqueues (HORSE pause).

    It depends on *n* alone, so it is built once per vCPU count and
    shared; :class:`CoalescedUpdate` is frozen, and a fault that loses
    a sandbox's update replaces the sandbox's reference instead.
    """
    template = RunqueueLoad().enqueue_update(DEFAULT_ENTITY_WEIGHT)
    return CoalescedUpdate.precompute(template.alpha, template.beta, n)
