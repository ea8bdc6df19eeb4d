"""Transport-sensitivity study (extension of the paper's §2 premise).

For each trigger transport (local / nanoPU-class / kernel-bypass RPC /
kernel TCP) and each start strategy (warm, HORSE), measure the share of
the Category-3 pipeline (trigger delivery + initialization + execution)
spent *outside* function execution.  The study shows the regime
boundary the paper asserts: HORSE only matters once the trigger path is
in the ns-to-low-us range — behind a ~30 us TCP RPC, the 1 us vanilla
resume is already noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.runner import fresh_platform
from repro.faas.function import FunctionSpec
from repro.faas.invocation import StartType
from repro.faas.platform import FaaSPlatform
from repro.faas.transport import ALL_TRANSPORTS, TransportModel
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import seconds
from repro.workloads import ArrayFilterWorkload


@dataclass
class TransportCell:
    transport: str
    scenario: StartType
    mean_overhead_pct: float       # (transport + init) / pipeline
    mean_transport_ns: float
    mean_init_ns: float


@dataclass
class TransportSensitivityResult:
    cells: Dict[tuple, TransportCell] = field(default_factory=dict)

    def cell(self, transport: str, scenario: StartType) -> TransportCell:
        return self.cells[(transport, scenario)]

    def transports(self) -> List[str]:
        return sorted({key[0] for key in self.cells})

    def horse_benefit_pct(self, transport: str) -> float:
        """Overhead-share points HORSE saves vs warm at this transport."""
        warm = self.cell(transport, StartType.WARM).mean_overhead_pct
        horse = self.cell(transport, StartType.HORSE).mean_overhead_pct
        return warm - horse

    def rows(self) -> List[Dict[str, object]]:
        from repro.experiments.rows import object_row, sorted_cells

        return [object_row(cell) for _key, cell in sorted_cells(self)]


def run_transport_sensitivity(
    invocations: int = 100,
    seed: int = 0,
    transports: Sequence[TransportModel] = ALL_TRANSPORTS,
) -> TransportSensitivityResult:
    result = TransportSensitivityResult()
    workload_name = "array-filter"
    for transport in transports:
        for scenario in (StartType.WARM, StartType.HORSE):
            rngs = RngRegistry(seed).fork(
                f"{transport.kind.value}-{scenario.value}"
            )
            faas = FaaSPlatform(
                engine=Engine(), virt=fresh_platform("firecracker"), rngs=rngs
            )
            faas.register(FunctionSpec(workload_name, ArrayFilterWorkload()))
            faas.provision_warm(
                workload_name, count=1, use_horse=scenario is StartType.HORSE
            )
            transport_rng = rngs.stream("transport")
            overhead_pcts: List[float] = []
            transport_ns_sum = 0
            init_ns_sum = 0
            for _ in range(invocations):
                delivery_ns = transport.sample_ns(transport_rng)
                invocation = faas.trigger(workload_name, scenario)
                faas.engine.run(until=faas.engine.now + seconds(1))
                pipeline_ns = delivery_ns + invocation.total_ns
                overhead_ns = delivery_ns + invocation.initialization_ns
                overhead_pcts.append(100.0 * overhead_ns / pipeline_ns)
                transport_ns_sum += delivery_ns
                init_ns_sum += invocation.initialization_ns
            result.cells[(transport.kind.value, scenario)] = TransportCell(
                transport=transport.kind.value,
                scenario=scenario,
                mean_overhead_pct=sum(overhead_pcts) / len(overhead_pcts),
                mean_transport_ns=transport_ns_sum / invocations,
                mean_init_ns=init_ns_sum / invocations,
            )
    return result


def render_transport_sensitivity(result: TransportSensitivityResult) -> str:
    lines = [
        f"{'transport':12s} {'scenario':10s} {'overhead %':>10s} "
        f"{'transport ns':>13s} {'init ns':>10s}"
    ]
    for cell in result.rows():
        lines.append(
            f"{cell['transport']:12s} {cell['scenario']:10s} "
            f"{cell['mean_overhead_pct']:10.3f} {cell['mean_transport_ns']:13.1f} "
            f"{cell['mean_init_ns']:10.1f}"
        )
    return "\n".join(lines)
