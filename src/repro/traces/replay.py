"""Streaming, bounded-memory trace replay at production cardinality.

ROADMAP item 2: `repro.traces.azure` synthesizes Serverless-in-the-Wild
shaped arrivals, but materializes every timestamp up front — fine for a
30 s chunk, hopeless for 50k functions over an hour.  This module
replays the same workload *shape* as a *stream*:

* each function's arrivals are a lazy generator
  (:func:`arrival_stream`) driven by a counter-based per-function PRNG,
  so no function's draws depend on any other's;
* :func:`merged_stream` heap-merges the per-function generators holding
  **at most one pending event per live stream** — peak buffering is
  bounded by the function count, never by the event count (asserted by
  the bounded-memory regression test via :class:`ReplayStats`, a
  counting wrapper, not RSS);
* the merge tie-break is pinned to ``(t, function_index,
  per-function sequence)`` — like PR 7 pinned ``(t, shard, index)`` —
  so duplicate timestamps at merge boundaries order deterministically
  and same seed ⇒ byte-identical output, including across ``--shards``.

The function population mirrors the Azure dataset's published
structure (Shahrad et al., ATC'20): heavy-tailed Pareto rates, an idle
cohort that never fires, a timer-triggered cohort on jittered periods
(~29 % of Azure functions are timer triggers — the cohort that makes
histogram prewarming interesting), and an MMPP bursty remainder reusing
:func:`repro.traces.azure.burst_arrival_stream`.

Determinism note: per-function seeds derive from
``sha256("replay:<seed>:<index>")`` like :class:`repro.sim.rng.RngRegistry`
streams, and the PRNG is a self-contained SplitMix64 — ~3 machine words
per function instead of a ~2.5 KB Mersenne state, which is the
difference between 50k streams fitting in cache and not.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from math import log
from typing import Iterator, List, Optional, Tuple

from repro.sim.units import SECOND
from repro.traces.azure import AzureTraceConfig, burst_arrival_stream

__all__ = [
    "SplitMix64",
    "ReplayConfig",
    "ReplayStats",
    "FunctionProfile",
    "stream_seed",
    "function_profile",
    "arrival_stream",
    "merged_stream",
    "materialized_oracle",
]


class SplitMix64:
    """Tiny counter-based PRNG: one 64-bit word of state per stream.

    The standard SplitMix64 finalizer (Steele et al., "Fast splittable
    pseudorandom number generators").  Chosen over ``random.Random``
    because the replayer holds one generator per function — 50k Mersenne
    states cost ~130 MB, 50k of these cost ~3 MB — and because the
    output sequence is pinned by this file alone, not by the Python
    version's Mersenne implementation details.
    """

    __slots__ = ("_state",)

    _GOLDEN = 0x9E3779B97F4A7C15
    _MASK = 0xFFFFFFFFFFFFFFFF

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + self._GOLDEN) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of entropy.

        ``next_u64() >> 11`` scaled by 2**-53.  The finalizer is inlined
        because the replayer draws at least once per arrival.
        """
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return ((z ^ (z >> 31)) >> 11) * (1.0 / (1 << 53))

    def expovariate(self, lambd: float) -> float:
        # 1 - random() is in (0, 1], so log() never sees zero.
        return -log(1.0 - self.random()) / lambd

    def paretovariate(self, alpha: float) -> float:
        u = 1.0 - self.random()
        return u ** (-1.0 / alpha)


def stream_seed(seed: int, index: int) -> int:
    """Stable 64-bit seed for function *index* under replay *seed*.

    sha256-derived like :class:`repro.sim.rng.RngRegistry` forks, so the
    mapping survives Python-version and platform changes.
    """
    digest = hashlib.sha256(f"replay:{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ReplayConfig:
    """Population + workload shape for a streaming replay run.

    Defaults target Azure-dataset realism at production cardinality:
    most functions are rare (``mean_rate_per_function`` well under
    1/s before the heavy tail), a large idle cohort never fires, and a
    quarter of the live ones are timer-triggered on minute-to-hour
    periods.
    """

    functions: int = 1000
    duration_s: float = 3600.0
    seed: int = 0
    #: long-run mean invocation rate per *live* bursty function (1/s)
    mean_rate_per_function: float = 0.02
    #: Pareto shape over bursty-function rates (must be > 1 so the
    #: mean-normalization factor (alpha-1)/alpha is positive)
    pareto_shape: float = 1.5
    burst_on_fraction: float = 0.35
    burst_mean_length_s: float = 60.0
    #: fraction of functions that never fire (Azure's long dead tail)
    idle_fraction: float = 0.4
    #: fraction of functions on timer triggers (ATC'20: ~29 % overall)
    periodic_fraction: float = 0.25
    period_min_s: float = 60.0
    period_max_s: float = 3600.0
    #: +/- relative jitter applied to every periodic tick
    period_jitter: float = 0.05

    def __post_init__(self) -> None:
        if self.functions <= 0:
            raise ValueError(f"functions must be positive, got {self.functions}")
        if not 0 < self.duration_s < math.inf:
            raise ValueError(
                f"duration_s must be positive and finite, got {self.duration_s}"
            )
        if self.mean_rate_per_function < 0:
            raise ValueError(
                f"mean rate must be >= 0, got {self.mean_rate_per_function}"
            )
        if self.pareto_shape <= 1:
            raise ValueError(
                f"pareto_shape must be > 1 for a finite mean, "
                f"got {self.pareto_shape}"
            )
        if not 0 < self.burst_on_fraction <= 1:
            raise ValueError(
                f"burst_on_fraction must be in (0, 1], got {self.burst_on_fraction}"
            )
        if self.burst_mean_length_s <= 0:
            raise ValueError(
                f"burst_mean_length_s must be positive, "
                f"got {self.burst_mean_length_s}"
            )
        if not 0 <= self.idle_fraction <= 1:
            raise ValueError(
                f"idle_fraction must be in [0, 1], got {self.idle_fraction}"
            )
        if not 0 <= self.periodic_fraction <= 1:
            raise ValueError(
                f"periodic_fraction must be in [0, 1], got {self.periodic_fraction}"
            )
        if self.idle_fraction + self.periodic_fraction > 1:
            raise ValueError("idle_fraction + periodic_fraction must be <= 1")
        if not 0 < self.period_min_s <= self.period_max_s:
            raise ValueError(
                f"need 0 < period_min_s <= period_max_s, "
                f"got {self.period_min_s}, {self.period_max_s}"
            )
        if not 0 <= self.period_jitter <= 0.45:
            # Above ~0.45 jittered ticks could reorder; keep monotone.
            raise ValueError(
                f"period_jitter must be in [0, 0.45], got {self.period_jitter}"
            )

    def azure_config(self) -> AzureTraceConfig:
        """The burst-shape slice, for :func:`burst_arrival_stream`."""
        return AzureTraceConfig(
            functions=1,
            duration_s=self.duration_s,
            mean_rate_per_function=self.mean_rate_per_function,
            pareto_shape=self.pareto_shape,
            burst_on_fraction=self.burst_on_fraction,
            burst_mean_length_s=self.burst_mean_length_s,
        )


@dataclass(frozen=True)
class FunctionProfile:
    """What one function in the population looks like."""

    index: int
    kind: str                      # "idle" | "periodic" | "bursty"
    rate_per_s: float = 0.0        # bursty long-run mean rate
    period_s: float = 0.0          # periodic base period
    phase_s: float = 0.0           # periodic first-tick offset


def function_profile(config: ReplayConfig, index: int) -> FunctionProfile:
    """Draw function *index*'s profile from its own seeded stream.

    Purely per-function: profile draws share the function's stream (a
    fixed prefix of it), so any function's behaviour is reproducible
    without touching the other ``functions - 1`` streams.
    """
    if not 0 <= index < config.functions:
        raise ValueError(f"function index {index} out of range")
    rng = SplitMix64(stream_seed(config.seed, index))
    cohort = rng.random()
    if cohort < config.idle_fraction:
        return FunctionProfile(index=index, kind="idle")
    if cohort < config.idle_fraction + config.periodic_fraction:
        # Log-uniform period over [min, max]: short timers are common,
        # hour-scale ones exist (the fixed-keep-alive killer).
        lo, hi = math.log(config.period_min_s), math.log(config.period_max_s)
        period_s = math.exp(lo + (hi - lo) * rng.random())
        phase_s = rng.random() * period_s
        return FunctionProfile(
            index=index, kind="periodic", period_s=period_s, phase_s=phase_s
        )
    # Bursty cohort: Pareto-tailed rate with mean mean_rate_per_function.
    # E[paretovariate(a)] = a/(a-1), so scale by (a-1)/a to normalize the
    # mean WITHOUT a population-wide sum — keeps streams independent.
    alpha = config.pareto_shape
    rate = (
        config.mean_rate_per_function
        * rng.paretovariate(alpha)
        * (alpha - 1.0)
        / alpha
    )
    return FunctionProfile(index=index, kind="bursty", rate_per_s=rate)


def _periodic_stream(
    profile: FunctionProfile, config: ReplayConfig, rng: SplitMix64
) -> Iterator[int]:
    """Timer-trigger ticks with per-tick jitter, monotone by construction."""
    duration_ns = round(config.duration_s * SECOND)
    period_ns = profile.period_s * SECOND
    t = profile.phase_s * SECOND
    prev = -1
    while True:
        jitter = 1.0 + config.period_jitter * (2.0 * rng.random() - 1.0)
        when = round(t)
        if when >= duration_ns:
            return
        if when <= prev:           # monotonicity belt for extreme jitter
            when = prev
        yield when
        prev = when
        t += period_ns * jitter


def arrival_stream(config: ReplayConfig, index: int) -> Iterator[int]:
    """Lazy arrival timestamps (ns, nondecreasing) for one function.

    Resumes the function's seeded stream where :func:`function_profile`
    left off, so profile + arrivals together consume one deterministic
    draw sequence per function.
    """
    rng = SplitMix64(stream_seed(config.seed, index))
    profile = function_profile(config, index)
    # function_profile consumed draws from an identical stream; replay
    # the same prefix so arrival draws line up deterministically.
    rng.random()                                  # cohort draw
    if profile.kind == "idle":
        return iter(())
    if profile.kind == "periodic":
        rng.random()                              # period draw
        rng.random()                              # phase draw
        return _periodic_stream(profile, config, rng)
    rng.random()                                  # rate (pareto) draw
    return burst_arrival_stream(
        profile.rate_per_s, config.duration_s, config.azure_config(), rng
    )


@dataclass
class ReplayStats:
    """Counting wrapper filled in by :func:`merged_stream`.

    ``peak_buffered`` counts events held inside the merge at once (the
    heap plus at most one lookahead per stream) — the bounded-memory
    regression asserts this stays <= ``functions`` for any event count.
    """

    events: int = 0
    peak_buffered: int = 0
    exhausted_streams: int = 0


def merged_stream(
    config: ReplayConfig,
    stats: Optional[ReplayStats] = None,
    indices: Optional[List[int]] = None,
) -> Iterator[Tuple[int, int, int]]:
    """Heap-merge all per-function streams into one time-ordered stream.

    Yields ``(t_ns, function_index, seq)`` where ``seq`` is the
    per-function arrival sequence number.  Ordering is the pinned
    tie-break ``(t, function_index, seq)``: duplicate timestamps across
    functions order by index; within a function, by arrival order.

    Memory contract: holds exactly one pending event per live stream —
    ``len(heap) <= len(indices or range(functions))`` always.  Streams
    that exhaust are dropped from the heap (``exhausted_streams``
    counts them), so memory *shrinks* as the tail of rare functions
    finishes.
    """
    if indices is None:
        indices = list(range(config.functions))
    # Entries are (t, index, seq, stream).  Indices are distinct, so
    # comparisons never reach the stream.
    heap: List[Tuple[int, int, int, Iterator[int]]] = []
    for index in indices:
        it = arrival_stream(config, index)
        first = next(it, None)
        if first is None:
            if stats is not None:
                stats.exhausted_streams += 1
            continue
        heap.append((first, index, 0, it))
    heapq.heapify(heap)
    if stats is not None:
        stats.peak_buffered = max(stats.peak_buffered, len(heap))
    while heap:
        t, index, seq, it = heap[0]
        yield t, index, seq
        nxt = next(it, None)
        if nxt is None:
            heapq.heappop(heap)
            if stats is not None:
                stats.exhausted_streams += 1
        else:
            # Replace the popped head in one sift — the heap never
            # grows past its initial size.
            heapq.heapreplace(heap, (nxt, index, seq + 1, it))
        if stats is not None:
            stats.events += 1


def materialized_oracle(config: ReplayConfig) -> List[Tuple[int, int, int]]:
    """Naive materialize-and-sort reference for differential tests.

    Builds every per-function list eagerly, tags events with
    ``(t, index, seq)``, and sorts — exactly the memory profile the
    streaming merge avoids, and exactly the sequence it must reproduce
    byte-for-byte.
    """
    events: List[Tuple[int, int, int]] = []
    for index in range(config.functions):
        for seq, t in enumerate(arrival_stream(config, index)):
            events.append((t, index, seq))
    events.sort()
    return events
