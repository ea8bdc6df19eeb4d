"""SLO attainment: the paper's central question, quantified.

"Can a uLL workload meet its low latency requirements if triggered in
a sandbox?" (§1).  This experiment answers it as a deadline-attainment
probability: for each uLL category and each start strategy, what
fraction of invocations complete (trigger -> function end) within the
category's latency budget?

Budgets follow the category definitions: 20 us (Category 1), 5 us
(Category 2, ~3x its 1.5 us mean), 2 us (Category 3).  Cold and
restore attain ~0 everywhere; vanilla warm starts lose Category 2/3
attainment to the ~1.1 us resume; HORSE restores it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.runner import fresh_platform
from repro.faas.function import FunctionSpec
from repro.faas.invocation import StartType
from repro.faas.platform import FaaSPlatform
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import microseconds, seconds
from repro.workloads import ull_workloads
from repro.workloads.base import Workload

#: Per-category latency budgets (ns).
DEFAULT_BUDGETS_NS: Dict[str, int] = {
    "firewall": microseconds(20),
    "nat": microseconds(5),
    "array-filter": microseconds(2),
}

SLO_SCENARIOS = (StartType.COLD, StartType.RESTORE, StartType.WARM,
                 StartType.HORSE)


@dataclass
class AttainmentCell:
    category: str
    scenario: StartType
    budget_ns: int
    attained: int
    total: int

    @property
    def attainment(self) -> float:
        return self.attained / self.total if self.total else 0.0


@dataclass
class SloResult:
    cells: Dict[tuple, AttainmentCell] = field(default_factory=dict)
    invocations_per_cell: int = 0

    def cell(self, category: str, scenario: StartType) -> AttainmentCell:
        return self.cells[(category, scenario)]

    def categories(self) -> List[str]:
        return sorted({key[0] for key in self.cells})

    def attainment(self, category: str, scenario: StartType) -> float:
        return self.cell(category, scenario).attainment

    def rows(self) -> List[Dict[str, object]]:
        from repro.experiments.rows import object_row, sorted_cells

        return [
            object_row(cell, extra=("attainment",))
            for _key, cell in sorted_cells(self)
        ]


def run_slo(
    invocations: int = 200,
    seed: int = 0,
    budgets_ns: Dict[str, int] | None = None,
    workloads: Sequence[Workload] | None = None,
    scenarios: Sequence[StartType] = SLO_SCENARIOS,
    platform: str = "firecracker",
) -> SloResult:
    """Measure deadline attainment per (category, scenario)."""
    if invocations < 1:
        raise ValueError(f"invocations must be >= 1, got {invocations}")
    budgets = dict(budgets_ns or DEFAULT_BUDGETS_NS)
    result = SloResult(invocations_per_cell=invocations)
    root = RngRegistry(seed)
    for workload in workloads if workloads is not None else ull_workloads():
        budget = budgets.get(workload.name)
        if budget is None:
            raise KeyError(f"no latency budget for workload {workload.name!r}")
        for scenario in scenarios:
            rngs = root.fork(f"{workload.name}-{scenario.value}")
            faas = FaaSPlatform(
                engine=Engine(), virt=fresh_platform(platform), rngs=rngs
            )
            faas.register(FunctionSpec(workload.name, workload))
            if scenario in (StartType.WARM, StartType.HORSE):
                faas.provision_warm(
                    workload.name,
                    count=1,
                    use_horse=scenario is StartType.HORSE,
                )
            reuses_pool = scenario in (StartType.WARM, StartType.HORSE)
            attained = 0
            for _ in range(invocations):
                invocation = faas.trigger(
                    workload.name, scenario, return_to_pool=reuses_pool
                )
                faas.engine.run(until=faas.engine.now + seconds(3))
                if invocation.total_ns <= budget:
                    attained += 1
                if not reuses_pool:
                    # Cold/restore create a fresh sandbox per trigger;
                    # tear it down so 200 iterations don't exhaust the
                    # host's 128 GB.
                    faas.virt.host.release_memory(
                        faas.registry.get(workload.name).memory_mb
                    )
            result.cells[(workload.name, scenario)] = AttainmentCell(
                category=workload.name,
                scenario=scenario,
                budget_ns=budget,
                attained=attained,
                total=invocations,
            )
    return result


def render_slo(result: SloResult) -> str:
    lines = [f"{'category':16s} {'scenario':10s} {'budget us':>10s} {'attained':>9s}"]
    for cell in result.rows():
        lines.append(
            f"{cell['category']:16s} {cell['scenario']:10s} "
            f"{cell['budget_ns'] / 1000:10.1f} "
            f"{100 * cell['attainment']:8.2f}%"
        )
    return "\n".join(lines)
