"""The paper's three uLL function categories as one list."""

from __future__ import annotations

from typing import List

from repro.workloads.array_filter import ArrayFilterWorkload
from repro.workloads.base import Workload
from repro.workloads.firewall import FirewallWorkload
from repro.workloads.nat import NatWorkload


def ull_workloads() -> List[Workload]:
    """The paper's three uLL categories, in order (§2)."""
    return [FirewallWorkload(), NatWorkload(), ArrayFilterWorkload()]
