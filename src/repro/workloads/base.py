"""Workload interface.

A workload couples two things:

* **real function logic** — ``execute(payload)`` actually computes the
  function's result (the firewall really consults an allow list, the
  NAT really rewrites headers, ...), so correctness is testable;
* **a duration envelope** — ``sample_duration_ns(rng)`` draws the
  simulated execution time charged on the sandbox, calibrated to the
  paper's measured means (Table 1: 17 us / 1.5 us / 0.7 us for the
  three uLL categories; >1 s for the long-running thumbnail class).

Separating the two lets the latency pipeline stay calibrated while the
logic stays real — the substitution rule of DESIGN.md §2.
"""

from __future__ import annotations

import abc
import enum
import random
from typing import Any


class WorkloadCategory(enum.Enum):
    """The paper's workload classes."""

    CATEGORY_1 = "category-1"     # uLL, <= 20 us (stateless firewall)
    CATEGORY_2 = "category-2"     # uLL, ~1 us (NAT)
    CATEGORY_3 = "category-3"     # uLL, 100s of ns (array filter)
    LONG_RUNNING = "long-running" # > 1 s (thumbnail generator)
    BACKGROUND = "background"     # continuous CPU hog (sysbench)

    #: True for the three uLL categories, set on each member below
    is_ull: bool


# Every submit reads the flag, so each member carries it as a plain
# attribute: no property call, no tuple built per read.
for _category in WorkloadCategory:
    _category.is_ull = _category in (
        WorkloadCategory.CATEGORY_1,
        WorkloadCategory.CATEGORY_2,
        WorkloadCategory.CATEGORY_3,
    )
del _category


class Workload(abc.ABC):
    """One deployable function body."""

    #: Unique registry name, e.g. ``"firewall"``.
    name: str = "abstract"
    category: WorkloadCategory = WorkloadCategory.CATEGORY_1

    @abc.abstractmethod
    def execute(self, payload: Any) -> Any:
        """Run the real function logic on *payload*."""

    @abc.abstractmethod
    def sample_duration_ns(self, rng: random.Random) -> int:
        """Draw one simulated execution duration (ns)."""

    @abc.abstractmethod
    def example_payload(self, rng: random.Random) -> Any:
        """Produce a representative payload for drivers and examples."""

    @property
    def is_ull(self) -> bool:
        return self.category.is_ull

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, {self.category.value})"


def truncated_normal_ns(
    rng: random.Random, mean_ns: float, rel_std: float, floor_ns: float
) -> int:
    """Draw a normal duration with relative std, floored (no negative
    or absurdly small times)."""
    value = rng.gauss(mean_ns, mean_ns * rel_std)
    return round(max(floor_ns, value))
