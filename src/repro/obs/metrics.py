"""The metric registry: counters, gauges, and ns-latency histograms.

One :class:`MetricRegistry` per observed run unifies what the ad-hoc
series recorders collect piecemeal: every instrumented component
get-or-creates named instruments from the registry it was wired with,
so a single snapshot shows the whole platform — resume-phase latency
histograms next to run-queue scan counters next to pool hit rates.

Instruments are deliberately primitive (no labels, no time windows):

* :class:`Counter` — monotonically increasing count;
* :class:`Gauge` — last-written value;
* :class:`Histogram` — fixed-bucket distribution tuned for nanosecond
  latencies (1-2-5 decades from 1 ns to 10 s), with exact ``sum`` and
  ``count`` so phase totals reconcile exactly against span durations.

``NULL_REGISTRY`` swallows everything; hot paths guard attribute
building behind ``registry.enabled`` / ``obs.enabled``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple


def _decades(lo_exp: int, hi_exp: int) -> Tuple[float, ...]:
    bounds: List[float] = []
    for exponent in range(lo_exp, hi_exp + 1):
        for mantissa in (1, 2, 5):
            bounds.append(mantissa * 10.0 ** exponent)
    return tuple(bounds)


#: Default histogram bounds: 1-2-5 series over 1 ns .. 10 s.
DEFAULT_LATENCY_BUCKETS_NS: Tuple[float, ...] = _decades(0, 10)


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket distribution with exact sum/count/min/max.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    anything beyond the last edge.  ``quantile`` interpolates linearly
    inside the containing bucket (clamped to observed min/max), which
    is plenty for the evaluation's p50/p99-style reporting.
    """

    __slots__ = (
        "name", "help", "bounds", "counts", "count", "sum", "minimum", "maximum"
    )

    def __init__(
        self,
        name: str,
        bounds: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_NS,
        help: str = "",
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r}: bounds must be sorted, non-empty")
        self.name = name
        self.help = help
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]) by in-bucket interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q={q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.maximum
                )
                lower = max(lower, self.minimum) if index == 0 else lower
                fraction = (target - seen) / bucket_count
                value = lower + fraction * (upper - lower)
                return min(max(value, self.minimum), self.maximum)
            seen += bucket_count
        return self.maximum

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.1f})"


class MetricRegistry:
    """Named get-or-create store for counters, gauges, and histograms.

    Components that keep a count anyway as a plain int (run-queue
    inserts and dequeues, scheduler enqueues, PELT load folds) register
    a *collector* — a callable invoked before every read of the
    instruments (``counters``, ``histograms``, ``snapshot``, ``render``)
    so exported numbers are current without any per-event metric
    traffic.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Any] = []
        self._bound_handles: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def bound(self, key: str, factory: Any) -> Any:
        """Get-or-create a cached bundle of instrument handles.

        Per-event instrument sites (pool acquire, the pause and resume
        paths) resolve their handles once per registry through this
        cache instead of re-looking names up per event; because metric
        names are global, short-lived components — the chaos study
        churns through hundreds of per-host pools — share one binding
        rather than each paying the registry lookups again.  *factory*
        receives the registry and returns the handle bundle; ``clear()``
        drops the cache with the instruments.
        """
        handles = self._bound_handles.get(key)
        if handles is None:
            handles = self._bound_handles[key] = factory(self)
        return handles

    # ------------------------------------------------------------------
    def add_collector(self, collector: Any) -> None:
        """Register a zero-arg callable run before snapshot/render."""
        self._collectors.append(collector)

    def remove_collector(self, collector: Any) -> None:
        """Unregister a collector added by :meth:`add_collector`."""
        self._collectors.remove(collector)

    def collect(self) -> None:
        """Flush batched component state into instruments."""
        for collector in self._collectors:
            collector()

    # ------------------------------------------------------------------
    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str, help: str = "") -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, "counter")
            instrument = self._counters[name] = Counter(name, help)
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, "gauge")
            instrument = self._gauges[name] = Gauge(name, help)
        return instrument

    def histogram(
        self,
        name: str,
        bounds: Optional[Tuple[float, ...]] = None,
        help: str = "",
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(name, "histogram")
            instrument = self._histograms[name] = Histogram(
                name, bounds or DEFAULT_LATENCY_BUCKETS_NS, help
            )
        return instrument

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        )

    def counters(self) -> Dict[str, Counter]:
        self.collect()
        return dict(self._counters)

    def histograms(self) -> Dict[str, Histogram]:
        self.collect()
        return dict(self._histograms)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-data view of every instrument (JSON-serializable)."""
        self.collect()
        out: Dict[str, Dict[str, Any]] = {}
        for name, counter in self._counters.items():
            out[name] = {"type": "counter", "value": counter.value}
        for name, gauge in self._gauges.items():
            out[name] = {"type": "gauge", "value": gauge.value}
        for name, histogram in self._histograms.items():
            out[name] = {
                "type": "histogram",
                "count": histogram.count,
                "sum": histogram.sum,
                "mean": histogram.mean,
                "min": histogram.minimum if histogram.count else None,
                "max": histogram.maximum if histogram.count else None,
                "p50": histogram.quantile(0.5),
                "p99": histogram.quantile(0.99),
            }
        return out

    def render(self) -> str:
        """Human-readable summary table, sorted by metric name."""
        self.collect()
        lines: List[str] = []
        for name in self.names():
            if name in self._counters:
                lines.append(f"{name:<32s} count   {self._counters[name].value}")
            elif name in self._gauges:
                lines.append(f"{name:<32s} gauge   {self._gauges[name].value:g}")
            else:
                histogram = self._histograms[name]
                lines.append(
                    f"{name:<32s} histo   n={histogram.count} "
                    f"mean={histogram.mean:.1f} p50={histogram.quantile(0.5):.1f} "
                    f"p99={histogram.quantile(0.99):.1f}"
                )
        return "\n".join(lines)

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        # Dropping the bound-handle cache keeps a cleared registry from
        # resurrecting stale instruments through old bindings.
        self._bound_handles.clear()


class _NullCounter(Counter):
    """Do-nothing counter; ``__slots__ = ()`` keeps instances dict-free
    so the module singletons below cost one object for the process."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


#: Process-wide no-op instruments.  Instrument sites may cache these
#: (or any real instrument) in a local/attribute and call them
#: unconditionally — the no-op bodies compile the disabled path down to
#: a single C-level method call with no dict lookups or allocation.
NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null")


class NullRegistry(MetricRegistry):
    """Registry that hands out the shared no-op instruments."""

    enabled = False

    def counter(self, name: str, help: str = "") -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str, help: str = "") -> Gauge:
        return NULL_GAUGE

    def histogram(self, name, bounds=None, help="") -> Histogram:
        return NULL_HISTOGRAM


#: Shared do-nothing registry; pass a real MetricRegistry to opt in.
NULL_REGISTRY = NullRegistry()
