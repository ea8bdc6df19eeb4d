"""Category-2 uLL workload: a NAT (paper §2).

"We implement a NAT that changes a request header based on
pre-registered routing rules."  Execution envelope: ~1 us class,
mean 1.5 us (Table 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Tuple

from repro.workloads.base import Workload, WorkloadCategory, truncated_normal_ns
from repro.workloads.firewall import RequestHeader
from repro.sim.units import nanoseconds


@dataclass(frozen=True)
class NatRule:
    """Rewrite rule: traffic to (dst_ip, dst_port) goes to the target."""

    target_ip: str
    target_port: int

    def __post_init__(self) -> None:
        if not 0 <= self.target_port <= 65535:
            raise ValueError(f"invalid target port {self.target_port}")


class NatError(Exception):
    """No routing rule matched the request."""


class NatWorkload(Workload):
    """Destination NAT over a static rule table."""

    name = "nat"
    category = WorkloadCategory.CATEGORY_2

    DEFAULT_RULES: Mapping[Tuple[str, int], NatRule] = {
        ("198.51.100.10", 80): NatRule("10.0.0.10", 8080),
        ("198.51.100.10", 443): NatRule("10.0.0.10", 8443),
        ("198.51.100.20", 80): NatRule("10.0.0.20", 8080),
        ("198.51.100.30", 53): NatRule("10.0.0.53", 5353),
    }

    def __init__(
        self,
        rules: Mapping[Tuple[str, int], NatRule] | None = None,
        mean_duration_ns: int = nanoseconds(1500),
    ) -> None:
        self.rules: Dict[Tuple[str, int], NatRule] = dict(
            rules if rules is not None else self.DEFAULT_RULES
        )
        self.mean_duration_ns = mean_duration_ns

    # ------------------------------------------------------------------
    def execute(self, payload: RequestHeader) -> RequestHeader:
        if not isinstance(payload, RequestHeader):
            raise TypeError(f"NAT expects RequestHeader, got {type(payload)}")
        rule = self.rules.get((payload.dst_ip, payload.dst_port))
        if rule is None:
            raise NatError(
                f"no NAT rule for {payload.dst_ip}:{payload.dst_port}"
            )
        return replace(payload, dst_ip=rule.target_ip, dst_port=rule.target_port)

    def sample_duration_ns(self, rng: random.Random) -> int:
        return truncated_normal_ns(
            rng, self.mean_duration_ns, rel_std=0.12, floor_ns=nanoseconds(800)
        )

    def example_payload(self, rng: random.Random) -> RequestHeader:
        (dst_ip, dst_port) = rng.choice(sorted(self.rules))
        return RequestHeader(
            src_ip=f"203.0.113.{rng.randint(1, 254)}",
            dst_ip=dst_ip,
            dst_port=dst_port,
        )
