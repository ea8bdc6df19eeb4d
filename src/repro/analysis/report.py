"""Full-evaluation report: run every experiment, render every artifact.

``generate_report`` executes the complete paper evaluation (Table 1,
Figures 1-4, the §5.2 overhead study and the §5.4 colocation study) and
returns a Markdown document with paper-vs-measured comparisons —
the data EXPERIMENTS.md is built from.  Invoke from the command line::

    python -m repro report [--fast] [--seed N] [--out report.md]
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.ascii_chart import bar_chart, sparkline
from repro.analysis.figures import (
    figure1_series,
    figure4_series,
    render_colocation,
    render_figure1,
    render_figure2,
    render_figure3,
    render_figure4,
)
from repro.analysis.tables import render_table1
from repro.experiments.registry import ExperimentConfig
from repro.experiments.registry import get as get_experiment
from repro.faas.invocation import StartType


def generate_report(config: Optional[ExperimentConfig] = None) -> str:
    """Run the paper evaluation through the experiment registry.

    Every result object is obtained via the registered specs (one
    source of truth for fast/full parameters); this module only holds
    the narrative that stitches the artifacts into Markdown.
    """
    config = config or ExperimentConfig(fast=False)
    sections = ["# HORSE reproduction — full evaluation report\n"]

    table1 = get_experiment("table1").run(config).raw
    sections.append("## Table 1 — sandbox readiness per scenario\n")
    sections.append("```\n" + render_table1(table1) + "\n```\n")

    sections.append("## Figure 1 — initialization share per scenario\n")
    sections.append("```\n" + render_figure1(table1) + "\n```\n")
    sections.append(
        "```\n"
        + bar_chart(figure1_series(table1), categories=table1.categories())
        + "\n```\n"
    )

    figure2 = get_experiment("figure2").run(config).raw
    sections.append("## Figure 2 — vanilla resume breakdown\n")
    sections.append("```\n" + render_figure2(figure2) + "\n```\n")
    sections.append(
        f"Steps 4+5 share: {100 * figure2.points[0].hot_share:.1f}% at "
        f"{figure2.points[0].vcpus} vCPU -> "
        f"{100 * figure2.points[-1].hot_share:.1f}% at "
        f"{figure2.points[-1].vcpus} vCPUs "
        "(paper: 87.5% -> 93.1%).\n"
    )

    figure3 = get_experiment("figure3").run(config).raw
    sections.append("## Figure 3 — resume time per setup\n")
    sections.append("```\n" + render_figure3(figure3) + "\n```\n")
    vanil_series = [figure3.mean_ns("vanil", v) for v in figure3.vcpu_counts()]
    horse_series = [figure3.mean_ns("horse", v) for v in figure3.vcpu_counts()]
    sections.append(
        f"vanil vs vCPUs: {sparkline(vanil_series)}  "
        f"horse vs vCPUs: {sparkline(horse_series)} (flat)\n"
    )
    sections.append(
        f"coal improvement {100 * figure3.min_improvement('coal'):.0f}-"
        f"{100 * figure3.max_improvement('coal'):.0f}% (paper 16-20%), "
        f"ppsm {100 * figure3.min_improvement('ppsm'):.0f}-"
        f"{100 * figure3.max_improvement('ppsm'):.0f}% (paper 55-69%), "
        f"HORSE up to {100 * figure3.max_improvement('horse'):.0f}% "
        "(paper: up to 85%, 7.16x). HORSE resume flatness "
        f"{figure3.horse_flatness():.3f} (paper: constant ~150 ns).\n"
    )

    overhead = get_experiment("overhead").run(config).raw
    sections.append("## §5.2 — CPU and memory overhead of HORSE\n")
    peak_vcpus = max(overhead.vcpu_counts())
    sections.append(
        f"- memory delta at {peak_vcpus} vCPUs: "
        f"{overhead.memory_delta_bytes(peak_vcpus) / 1000:.1f} kB "
        "(paper: ~528 kB for 10 paused sandboxes)\n"
        f"- memory overhead vs running sandboxes: "
        f"{overhead.run('horse', peak_vcpus).memory_overhead_pct:.4f}% "
        "(paper prints 0.11%; 528 kB / 5 GB is 0.01%)\n"
        f"- pause-phase CPU delta: "
        f"{overhead.pause_cpu_delta_pct(peak_vcpus):.6f}% (paper: <= 0.3%)\n"
        f"- resume-phase CPU delta: "
        f"{overhead.resume_cpu_delta_pct(peak_vcpus):.6f}% (paper: <= 2.7%)\n"
    )

    figure4 = get_experiment("figure4").run(config).raw
    sections.append("## Figure 4 — HORSE vs cold/restore/warm\n")
    sections.append("```\n" + render_figure4(figure4) + "\n```\n")
    sections.append(
        "```\n"
        + bar_chart(figure4_series(figure4), categories=figure4.categories())
        + "\n```\n"
    )
    low, high = figure4.horse_init_pct_range()
    sections.append(
        f"HORSE init share {low:.2f}-{high:.2f}% (paper: 0.77-17.64%); "
        f"advantage vs warm {figure4.horse_advantage(StartType.WARM):.1f}x "
        "(paper: up to 8.95x), vs restore "
        f"{figure4.horse_advantage(StartType.RESTORE):.1f}x (paper: 142.7x), "
        f"vs cold {figure4.horse_advantage(StartType.COLD):.1f}x "
        "(paper: 142.84x).\n"
    )

    colocation = get_experiment("colocation").run(config).raw
    sections.append("## §5.4 — colocation with long-running functions\n")
    sections.append("```\n" + render_colocation(colocation) + "\n```\n")
    worst = max(colocation.vcpu_counts())
    sections.append(
        f"p99 overhead at {worst} uLL vCPUs: "
        f"{colocation.p99_overhead_us(worst):.1f} us "
        f"({colocation.p99_overhead_pct(worst):.5f}%) — paper: ~30 us "
        "(0.00107%); mean/p95 deltas: "
        f"{colocation.mean_delta_us(worst):.2f} / "
        f"{colocation.p95_delta_us(worst):.2f} us (paper: no difference).\n"
    )

    return "\n".join(sections)
