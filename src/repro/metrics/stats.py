"""Summary statistics used throughout the evaluation.

The paper reports means, 95th/99th percentiles, and 95 % confidence
intervals (it repeats each experiment 10x "which is enough for us to
achieve 95% confidence interval <= 3%").  This module provides those
estimators without depending on numpy for the hot paths (the experiment
drivers call them on small vectors millions of times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean() of empty sequence")
    return sum(values) / len(values)


def variance(values: Sequence[float]) -> float:
    """Unbiased sample variance (n-1 denominator); 0.0 for n < 2."""
    n = len(values)
    if n == 0:
        raise ValueError("variance() of empty sequence")
    if n == 1:
        return 0.0
    mu = mean(values)
    return sum((v - mu) ** 2 for v in values) / (n - 1)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation."""
    return math.sqrt(variance(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method).

    *p* is in [0, 100].  The input need not be sorted.
    """
    if not values:
        raise ValueError("percentile() of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile p={p} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (p / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    frac = rank - low
    # low + frac * (high - low) cannot overshoot the endpoints, unlike
    # the convex-combination form, which can exceed max() by one ulp.
    return float(ordered[low] + frac * (ordered[high] - ordered[low]))


# Two-sided Student-t critical values at 95 % confidence, indexed by
# degrees of freedom.  df=9 (10 repetitions) is the paper's setting.
_T_TABLE_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    25: 2.060, 30: 2.042, 40: 2.021, 60: 2.000, 120: 1.980,
}


def t_critical_95(df: int) -> float:
    """Two-sided 95 % Student-t critical value for *df* degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if df in _T_TABLE_95:
        return _T_TABLE_95[df]
    keys = sorted(_T_TABLE_95)
    if df > keys[-1]:
        return 1.96
    below = max(k for k in keys if k < df)
    above = min(k for k in keys if k > df)
    frac = (df - below) / (above - below)
    return _T_TABLE_95[below] + frac * (_T_TABLE_95[above] - _T_TABLE_95[below])


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with its symmetric 95 % confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} +/- {self.half_width:.2g} (n={self.n})"


def confidence_interval_95(values: Sequence[float]) -> ConfidenceInterval:
    """Student-t 95 % CI for the mean of *values*."""
    n = len(values)
    if n == 0:
        raise ValueError("confidence interval of empty sequence")
    mu = mean(values)
    if n == 1:
        return ConfidenceInterval(mean=mu, half_width=0.0, n=1)
    sem = stddev(values) / math.sqrt(n)
    return ConfidenceInterval(mean=mu, half_width=t_critical_95(n - 1) * sem, n=n)


@dataclass(frozen=True)
class Summary:
    """Full summary of one measured series."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float
    ci95: ConfidenceInterval

    @classmethod
    def of(cls, values: Iterable[float]) -> "Summary":
        data = list(values)
        if not data:
            raise ValueError("Summary.of() on empty data")
        return cls(
            n=len(data),
            mean=mean(data),
            std=stddev(data),
            minimum=min(data),
            maximum=max(data),
            p50=percentile(data, 50),
            p95=percentile(data, 95),
            p99=percentile(data, 99),
            ci95=confidence_interval_95(data),
        )
