"""Azure-like serverless trace synthesis.

The paper replays "arrival times derived from a 30 s chunk of the Azure
Cloud serverless real-world traces" [12] (the Azure Public Dataset of
Shahrad et al., "Serverless in the Wild", ATC'20).  The dataset itself
is not redistributable inside this repository, so we synthesize traces
with its published structure:

* per-function average rates are **heavy-tailed** — a few functions
  dominate invocations while most are rare (we draw per-function rates
  from a Pareto distribution, shape ~1.1, as the paper's Figure 4 of
  ATC'20 suggests);
* within a function, arrivals are **bursty**: a Markov-modulated
  Poisson process alternates idle and active periods, matching the
  dataset's high inter-arrival CV.

:func:`synthesize_trace` returns a :class:`SyntheticTrace`; experiments
replay its ``merged_timestamps``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.sim.units import SECOND


@dataclass(frozen=True)
class AzureTraceConfig:
    """Shape parameters for the synthesizer."""

    functions: int = 20
    duration_s: float = 30.0
    mean_rate_per_function: float = 1.0   # invocations / s, before tail
    pareto_shape: float = 1.1             # heavy tail over function rates
    burst_on_fraction: float = 0.35       # fraction of time a function is active
    burst_mean_length_s: float = 2.0      # mean active-period length

    def __post_init__(self) -> None:
        if self.functions <= 0:
            raise ValueError(f"functions must be positive, got {self.functions}")
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")
        if not 0 < self.burst_on_fraction <= 1:
            raise ValueError(
                f"burst_on_fraction must be in (0, 1], got {self.burst_on_fraction}"
            )
        if self.burst_mean_length_s <= 0:
            raise ValueError(
                f"burst_mean_length_s must be positive, "
                f"got {self.burst_mean_length_s}"
            )


@dataclass
class SyntheticTrace:
    """A synthesized multi-function invocation trace."""

    config: AzureTraceConfig
    #: function name -> sorted arrival timestamps (ns)
    invocations: Dict[str, List[int]] = field(default_factory=dict)

    def function_names(self) -> List[str]:
        return sorted(self.invocations)

    def merged_timestamps(self) -> List[int]:
        """All arrivals across functions, sorted — the platform's view."""
        merged: List[int] = []
        for timestamps in self.invocations.values():
            merged.extend(timestamps)
        return sorted(merged)

    def rate_per_second(self, function: str) -> float:
        return len(self.invocations[function]) / self.config.duration_s


def _draw_function_rates(config: AzureTraceConfig, rng: random.Random) -> List[float]:
    """Heavy-tailed per-function rates, normalized to the configured mean."""
    raw = [rng.paretovariate(config.pareto_shape) for _ in range(config.functions)]
    total = sum(raw)
    target_total = config.mean_rate_per_function * config.functions
    return [r / total * target_total for r in raw]


def burst_arrival_stream(
    rate: float, duration_s: float, config: AzureTraceConfig, rng
) -> Iterator[int]:
    """Markov-modulated Poisson arrivals for one function, streamed.

    Yields integer-ns timestamps in nondecreasing order and never
    materializes the whole trace — the streaming replayer
    (:mod:`repro.traces.replay`) holds thousands of these concurrently.
    *rng* needs only ``random()`` and ``expovariate()``, so both
    :class:`random.Random` and the replayer's counter-based streams fit.

    Edge cases (each exercised by the replay test battery):

    * ``rate == 0`` — a dead function: the stream is empty and consumes
      no draws, so neighbouring functions' streams are unperturbed;
    * ``burst_on_fraction == 1`` — no idle periods exist; the process
      degenerates to a plain Poisson stream at *rate* (the legacy list
      builder divided by a zero mean-off period here);
    * rounding to integer ns can emit duplicate timestamps — callers
      must tolerate equal consecutive values (the merge tie-break in
      the replayer pins their order).
    """
    if rate < 0:
        raise ValueError(f"arrival rate must be >= 0, got {rate}")
    if rate == 0:
        return
    # During active periods the instantaneous rate is boosted so the
    # long-run average matches *rate* despite idle gaps.
    active_rate = rate / config.burst_on_fraction
    mean_on = config.burst_mean_length_s
    mean_off = mean_on * (1.0 - config.burst_on_fraction) / config.burst_on_fraction
    if mean_off == 0.0:
        # Always-on: one uninterrupted Poisson process over the window.
        t = 0.0
        while True:
            t += rng.expovariate(active_rate)
            if t >= duration_s:
                return
            yield round(t * SECOND)
    now = 0.0
    active = rng.random() < config.burst_on_fraction
    while now < duration_s:
        period = rng.expovariate(1.0 / (mean_on if active else mean_off))
        period_end = min(duration_s, now + period)
        if active:
            t = now
            while True:
                t += rng.expovariate(active_rate)
                if t >= period_end:
                    break
                yield round(t * SECOND)
        now = period_end
        active = not active


def _burst_arrivals(
    rate: float, duration_s: float, config: AzureTraceConfig, rng: random.Random
) -> List[int]:
    """Materialized burst arrivals (the synthesizer's per-function list)."""
    return sorted(burst_arrival_stream(rate, duration_s, config, rng))


def synthesize_trace(
    config: AzureTraceConfig, rng: random.Random
) -> SyntheticTrace:
    """Generate one trace with the Azure-dataset structure."""
    rates = _draw_function_rates(config, rng)
    trace = SyntheticTrace(config=config)
    for index, rate in enumerate(rates):
        trace.invocations[f"func-{index:03d}"] = _burst_arrivals(
            rate, config.duration_s, config, rng
        )
    return trace
