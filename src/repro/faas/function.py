"""Function specifications and the registry tenants deploy into.

A :class:`FunctionSpec` is what a tenant ships: a workload body plus
the sandbox shape it runs in (vCPUs, memory) and its latency class.
The registry is the platform's catalog, keyed by function name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.workloads.base import Workload


@dataclass(frozen=True)
class FunctionSpec:
    """One deployed function."""

    name: str
    workload: Workload
    vcpus: int = 1
    memory_mb: int = 512
    #: Tenant subscribed to provisioned concurrency (always-warm pool).
    provisioned_concurrency: int = 0
    #: Resource tag this function needs on its host ("" = any host;
    #: e.g. "gpu" restricts placement to hosts tagged via
    #: :meth:`~repro.faas.cluster.FaaSCluster.tag_accelerator`).
    accelerator: str = ""

    def __post_init__(self) -> None:
        if self.accelerator != self.accelerator.strip():
            raise ValueError(
                f"{self.name}: accelerator tag {self.accelerator!r} "
                "has surrounding whitespace"
            )
        if self.vcpus < 1:
            raise ValueError(f"{self.name}: vcpus must be >= 1, got {self.vcpus}")
        if self.memory_mb < 1:
            raise ValueError(
                f"{self.name}: memory_mb must be >= 1, got {self.memory_mb}"
            )
        if self.provisioned_concurrency < 0:
            raise ValueError(
                f"{self.name}: provisioned_concurrency must be >= 0, "
                f"got {self.provisioned_concurrency}"
            )

    @property
    def is_ull(self) -> bool:
        # Read from the category on every call: a workload may be
        # re-categorised after its spec is built (chaos's vanilla mode).
        return self.workload.category.is_ull


class FunctionRegistry:
    """Name -> spec catalog with registration validation."""

    def __init__(self) -> None:
        self._functions: Dict[str, FunctionSpec] = {}

    def register(self, spec: FunctionSpec) -> None:
        if spec.name in self._functions:
            raise ValueError(f"function {spec.name!r} already registered")
        self._functions[spec.name] = spec

    def get(self, name: str) -> FunctionSpec:
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"no function named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __len__(self) -> int:
        return len(self._functions)

    def names(self) -> List[str]:
        return sorted(self._functions)
