"""Provisioned-concurrency autoscaler.

The premium always-warm options the paper leans on (Lambda Provisioned
Concurrency, Azure Premium, Alibaba Provisioned Mode) let tenants fix a
pool size; providers additionally auto-scale that target from observed
traffic.  This autoscaler closes that loop for the reproduction's
platform: it watches per-function trigger rates over a sliding window
and resizes the warm pool toward

    target = ceil(rate * expected_busy_time * headroom)

(Little's law with a safety factor), clamped to [min, max].  Scaling
up provisions HORSE-paused sandboxes ahead of demand; scaling down
lets keep-alive evict the excess by lowering the protected quota.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Optional

from repro.sim.event import Event, EventPriority
from repro.sim.units import SECOND, seconds

if TYPE_CHECKING:
    # Annotation only: the replay (prewarm) imports this module and
    # must not load the platform.
    from repro.faas.platform import FaaSPlatform


@dataclass(frozen=True)
class AutoscalerConfig:
    window_ns: int = seconds(10)        # rate-estimation window
    period_ns: int = seconds(2)         # reconciliation period
    headroom: float = 1.5               # safety factor over Little's law
    min_pool: int = 1
    max_pool: int = 32

    def __post_init__(self) -> None:
        if self.window_ns <= 0 or self.period_ns <= 0:
            raise ValueError("window and period must be positive")
        if self.headroom < 1.0:
            raise ValueError(f"headroom must be >= 1.0, got {self.headroom}")
        if not 0 <= self.min_pool <= self.max_pool:
            raise ValueError(
                f"bad pool bounds [{self.min_pool}, {self.max_pool}]"
            )


class PoolTargetTracker:
    """Engine-free sliding-window rate → Little's-law pool target.

    The pure core of the autoscaler, shared with the prewarm replayer's
    budget protection (:mod:`repro.faas.prewarm`): callers pass the
    current instant explicitly, so the tracker works against any clock
    (sim engine, replay stream) without holding a platform reference.
    """

    __slots__ = (
        "window_ns",
        "expected_busy_ns",
        "headroom",
        "min_pool",
        "max_pool",
        "_arrivals",
    )

    def __init__(
        self,
        window_ns: int,
        expected_busy_ns: int,
        headroom: float = 1.5,
        min_pool: int = 0,
        max_pool: int = 32,
    ) -> None:
        if window_ns <= 0:
            raise ValueError(f"window must be positive, got {window_ns}")
        if expected_busy_ns <= 0:
            raise ValueError(
                f"expected busy time must be positive, got {expected_busy_ns}"
            )
        if headroom < 1.0:
            raise ValueError(f"headroom must be >= 1.0, got {headroom}")
        if not 0 <= min_pool <= max_pool:
            raise ValueError(f"bad pool bounds [{min_pool}, {max_pool}]")
        self.window_ns = window_ns
        self.expected_busy_ns = expected_busy_ns
        self.headroom = headroom
        self.min_pool = min_pool
        self.max_pool = max_pool
        self._arrivals: Deque[int] = deque()

    def observe(self, now_ns: int) -> None:
        """Record one arrival at *now_ns*."""
        self._arrivals.append(now_ns)
        self._expire(now_ns)

    def _expire(self, now_ns: int) -> None:
        horizon = now_ns - self.window_ns
        arrivals = self._arrivals
        while arrivals and arrivals[0] < horizon:
            arrivals.popleft()

    def rate_per_second(self, now_ns: int) -> float:
        self._expire(now_ns)
        return len(self._arrivals) / (self.window_ns / SECOND)

    def target(self, now_ns: int) -> int:
        """Little's law with headroom, clamped to the pool bounds."""
        rate = self.rate_per_second(now_ns)
        busy_s = self.expected_busy_ns / SECOND
        raw = math.ceil(rate * busy_s * self.headroom)
        return max(self.min_pool, min(self.max_pool, raw))


class PoolAutoscaler:
    """Sliding-window rate tracker + periodic pool reconciliation."""

    def __init__(
        self,
        faas: FaaSPlatform,
        function_name: str,
        expected_busy_ns: int,
        config: AutoscalerConfig = AutoscalerConfig(),
    ) -> None:
        self.faas = faas
        self.function_name = function_name
        self.expected_busy_ns = expected_busy_ns
        self.config = config
        self.tracker = PoolTargetTracker(
            window_ns=config.window_ns,
            expected_busy_ns=expected_busy_ns,
            headroom=config.headroom,
            min_pool=config.min_pool,
            max_pool=config.max_pool,
        )
        self._tick_event: Optional[Event] = None
        self._running = False
        self.current_target = config.min_pool

    # ------------------------------------------------------------------
    def observe_trigger(self) -> None:
        """Record one trigger at the current instant."""
        self.tracker.observe(self.faas.engine.now)

    def desired_pool_size(self) -> int:
        """Little's law with headroom, clamped to the config bounds."""
        return self.tracker.target(self.faas.engine.now)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_tick()

    def stop(self) -> None:
        self._running = False
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def _schedule_tick(self) -> None:
        self._tick_event = self.faas.engine.schedule_after(
            self.config.period_ns,
            self._reconcile,
            priority=EventPriority.BACKGROUND,
            label=f"autoscale:{self.function_name}",
        )

    def _reconcile(self) -> None:
        if not self._running:
            return
        target = self.desired_pool_size()
        self.current_target = target
        pooled = self.faas.pool.size(self.function_name)
        if pooled < target:
            self.faas.provision_warm(self.function_name, count=target - pooled)
        # Scale-down: shrink the protected quota; keep-alive evicts the
        # rest naturally (no abrupt teardown of warm capacity).
        self.faas.pool.mark_provisioned(self.function_name, target)
        self._schedule_tick()
