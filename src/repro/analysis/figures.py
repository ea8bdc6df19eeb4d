"""Render experiment results as the paper's figure series (text).

Each ``render_figureN`` returns a plain-text view of one figure; the
benchmark harness prints these so a reproduction run shows the same
rows/series the paper plots.  ``figure1_series``/``figure4_series``
return the bar-group data the report's bar charts draw.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.tables import render_table
from repro.experiments.colocation import ColocationResult
from repro.experiments.figure2 import Figure2Result
from repro.experiments.figure3 import Figure3Result
from repro.experiments.figure4 import FIGURE4_SCENARIOS, Figure4Result
from repro.experiments.table1 import Table1Result
from repro.faas.invocation import StartType
from repro.hypervisor.pause_resume import HOT_STEPS


# ----------------------------------------------------------------------
# Figure 1: init share per scenario x category
# ----------------------------------------------------------------------
def figure1_series(result: Table1Result) -> Dict[str, List[float]]:
    return {
        scenario.value: values
        for scenario, values in result.figure1_series().items()
    }


def render_figure1(result: Table1Result) -> str:
    categories = result.categories()
    headers = ["scenario"] + [f"{c} init%" for c in categories]
    rows = [
        [name] + [f"{v:.2f}" for v in values]
        for name, values in figure1_series(result).items()
    ]
    return render_table(headers, rows)


# ----------------------------------------------------------------------
# Figure 2: resume breakdown vs vCPUs
# ----------------------------------------------------------------------
def render_figure2(result: Figure2Result) -> str:
    headers = ["vCPUs", "total ns"] + [step for step in HOT_STEPS] + ["4+5 %"]
    rows = []
    for point in result.points:
        rows.append(
            [
                str(point.vcpus),
                f"{point.mean_total_ns:.0f}",
                *(f"{point.mean_step_ns.get(s, 0.0):.0f}" for s in HOT_STEPS),
                f"{100.0 * point.hot_share:.1f}",
            ]
        )
    return render_table(headers, rows)


# ----------------------------------------------------------------------
# Figure 3: resume time per setup vs vCPUs
# ----------------------------------------------------------------------
def render_figure3(result: Figure3Result) -> str:
    vcpus = result.vcpu_counts()
    headers = ["setup"] + [f"{v} vCPU" for v in vcpus] + ["max speedup"]
    rows = []
    for setup in ("vanil", "ppsm", "coal", "horse"):
        if setup not in result.series:
            continue
        cells = [f"{result.mean_ns(setup, v):.0f}ns" for v in vcpus]
        speedup = (
            "-"
            if setup == "vanil"
            else f"{max(result.speedup(setup, v) for v in vcpus):.2f}x"
        )
        rows.append([setup] + cells + [speedup])
    return render_table(headers, rows)


# ----------------------------------------------------------------------
# Figure 4: init share for cold/restore/warm/horse x workloads
# ----------------------------------------------------------------------
def figure4_series(result: Figure4Result) -> Dict[str, List[float]]:
    return {
        scenario.value: values for scenario, values in result.series().items()
    }


def render_figure4(result: Figure4Result) -> str:
    categories = result.categories()
    headers = ["scenario"] + [f"{c} init%" for c in categories] + ["vs HORSE"]
    rows = []
    for scenario in FIGURE4_SCENARIOS:
        cells = [f"{result.init_pct(c, scenario):.2f}" for c in categories]
        advantage = (
            "-"
            if scenario is StartType.HORSE
            else f"{result.horse_advantage(scenario):.1f}x"
        )
        rows.append([scenario.value] + cells + [advantage])
    return render_table(headers, rows)


# ----------------------------------------------------------------------
# §5.4 colocation latency table
# ----------------------------------------------------------------------
def render_colocation(result: ColocationResult) -> str:
    headers = [
        "uLL vCPUs", "mode", "mean (ms)", "p95 (ms)", "p99 (ms)",
        "p99 overhead (us)", "p99 overhead (%)",
    ]
    rows = []
    for vcpus in result.vcpu_counts():
        for mode in ("vanilla", "horse"):
            summary = result.run(mode, vcpus).summary()
            overhead_us = (
                f"{result.p99_overhead_us(vcpus):.1f}" if mode == "horse" else "-"
            )
            overhead_pct = (
                f"{result.p99_overhead_pct(vcpus):.5f}" if mode == "horse" else "-"
            )
            rows.append(
                [
                    str(vcpus),
                    mode,
                    f"{summary.mean_us / 1000:.2f}",
                    f"{summary.p95_us / 1000:.2f}",
                    f"{summary.p99_us / 1000:.2f}",
                    overhead_us,
                    overhead_pct,
                ]
            )
    return render_table(headers, rows)
