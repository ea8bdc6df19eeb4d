"""Keep-alive policies: how long an idle warm sandbox survives.

FaaS platforms keep a sandbox around after its function finishes so a
subsequent trigger gets a warm start (paper §1: "a keep-alive strategy,
which consists of keeping a sandbox active for a fixed time").  Two
policies:

* :class:`FixedKeepAlive` — the industry default (e.g. 10-20 min on
  the large providers; OpenWhisk's classic 10 min grace period);
* :class:`HybridKeepAlive` — a :class:`KeepAlivePolicy` facade over
  :class:`repro.faas.prewarm.HybridHistogram`, the full "Serverless in
  the Wild" (ATC'20) policy (binned histograms, prewarm windows,
  pattern-change reset).  Use this wherever the platform expects a
  keep-alive policy but the adaptive behaviour should come from the
  maintained implementation.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Optional

from repro.sim.units import seconds

if TYPE_CHECKING:
    from repro.faas.prewarm import HybridHistogram


class KeepAlivePolicy(abc.ABC):
    """Decides the eviction deadline of an idle warm sandbox."""

    @abc.abstractmethod
    def keep_alive_ns(self, function_name: str) -> int:
        """How long (ns) an idle sandbox of this function is retained."""

    def observe_idle_gap(self, function_name: str, gap_ns: int) -> None:
        """Feed an observed trigger-to-trigger idle gap (optional)."""


class FixedKeepAlive(KeepAlivePolicy):
    """Constant keep-alive window for every function."""

    def __init__(self, window_ns: int = seconds(600)) -> None:
        if window_ns < 0:
            raise ValueError(f"keep-alive window must be >= 0, got {window_ns}")
        self.window_ns = window_ns

    def keep_alive_ns(self, function_name: str) -> int:
        return self.window_ns


class HybridKeepAlive(KeepAlivePolicy):
    """Adaptive keep-alive driven by :class:`prewarm.HybridHistogram`.

    The legacy pool model has no unload/reload phase, so a decision's
    prewarm window (sandbox unloaded, then reloaded ahead of the
    predicted arrival) collapses onto the keep-alive axis: the sandbox
    is simply retained through ``prewarm + keep_alive``, which covers
    the same predicted-arrival horizon at a higher memory cost.
    """

    def __init__(self, policy: Optional["HybridHistogram"] = None) -> None:
        from repro.faas.prewarm import HybridHistogram

        self.policy = HybridHistogram() if policy is None else policy
        self._fn_ids: Dict[str, int] = {}

    def _fn(self, function_name: str) -> int:
        fn = self._fn_ids.get(function_name)
        if fn is None:
            fn = self._fn_ids[function_name] = len(self._fn_ids)
        return fn

    def observe_idle_gap(self, function_name: str, gap_ns: int) -> None:
        if gap_ns < 0:
            raise ValueError(f"negative idle gap {gap_ns}")
        self.policy.observe_gap(self._fn(function_name), gap_ns)

    def keep_alive_ns(self, function_name: str) -> int:
        decision = self.policy.decision(self._fn(function_name))
        return (decision.prewarm_ns or 0) + decision.keep_alive_ns
