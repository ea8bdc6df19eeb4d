"""Energy model: what a DVFS governor does with the tracked load.

The paper's step 5 matters because the run-queue load variable "is used
for frequency scaling".  A simple CMOS-style power model
(P = P_static + c * f^3 over the active frequency range) converts
governor decisions into power, which lets the skip-vs-coalesce ablation
measure the *consequence* of load-tracking choices:

* HORSE's coalesced update preserves the exact load value, so DVFS
  decisions — and therefore energy — are identical to the vanilla
  per-vCPU folds (property-tested);
* a naive fast path that *skipped* the update entirely (the obvious
  cheaper alternative) would leave the queue's load stale, driving the
  governor to a wrong frequency; :func:`frequency_error_ratio`
  quantifies that error, which is the justification for coalescing over
  omission (ablated in ``repro.experiments.ablations_energy``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hypervisor.dvfs import DvfsGovernor

#: Static (leakage + uncore) share of a core's peak power.
STATIC_FRACTION = 0.3


@dataclass(frozen=True)
class CorePowerModel:
    """Cubic dynamic power over the frequency envelope."""

    peak_watts: float = 6.0      # one Xeon core at max frequency
    static_watts: float = 6.0 * STATIC_FRACTION
    max_khz: int = 3_500_000

    def __post_init__(self) -> None:
        if self.peak_watts <= 0:
            raise ValueError(f"peak power must be positive: {self.peak_watts}")
        if not 0 <= self.static_watts < self.peak_watts:
            raise ValueError(
                f"static power {self.static_watts} outside [0, {self.peak_watts})"
            )
        if self.max_khz <= 0:
            raise ValueError(f"max frequency must be positive: {self.max_khz}")

    def power_watts(self, khz: int) -> float:
        """Power at frequency *khz* (clamped to the envelope)."""
        if khz < 0:
            raise ValueError(f"negative frequency {khz}")
        ratio = min(1.0, khz / self.max_khz)
        dynamic_peak = self.peak_watts - self.static_watts
        return self.static_watts + dynamic_peak * ratio**3


def frequency_error_ratio(
    governor: DvfsGovernor, true_load: float, stale_load: float
) -> float:
    """Relative frequency error a stale load induces.

    Returns ``|f(stale) - f(true)| / f(true)`` — zero when the load
    variable is kept exact (the coalescing guarantee), positive when a
    fast path skips updates.
    """
    true_khz = governor.target_khz(true_load)
    stale_khz = governor.target_khz(stale_load)
    if true_khz == 0:
        return 0.0
    return abs(stale_khz - true_khz) / true_khz

