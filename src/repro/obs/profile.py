"""Deterministic, sim-clock-aware subsystem profiler.

Conventional samplers (py-spy, cProfile) answer "where does wall time
go?" but their output is different on every run — useless as a CI
artifact and blind to *simulated* time.  This profiler hooks the
engine's dispatch loop instead and attributes every executed event to a
**subsystem** derived from the event's label stem (the part before the
first ``:``, which is stable across runs — id suffixes never
participate).  Two attributions are kept per (phase, subsystem, site):

* **samples** — one per executed event, and **sim-ns** — the simulated
  interval that elapsed up to the event.  Both are fully deterministic:
  same seed ⇒ byte-identical collapsed-stack and hotspot-table
  artifacts, diffable in CI like any golden file.
* **wall-ns** — real time measured around the event callback (plus
  scheduler-pop and invariant-watcher buckets).  Wall numbers are
  machine-dependent and therefore *never* written into the
  deterministic artifacts; they are reported separately so a human can
  see where a run actually burned CPU.

Cyclic-GC pauses are a layer of their own: while a run context holds
the profiler (:func:`repro.obs.context.activate`) a ``gc.callbacks``
hook times every collection, and
the time a collection spent inside an event callback or a scheduler
pop is moved out of that bucket into ``gc`` (with the collection count
per generation), so the wall report says how much of a run the
collector took.

Artifacts (written by ``repro profile``):

* ``<name>.collapsed`` — folded stacks ``name;phase;subsystem;site N``
  (N = samples), directly consumable by flamegraph.pl / speedscope;
* ``<name>.hotspots.json`` — machine-readable table sorted by samples.

The profiler reaches the engines through the run context: engines
built inside ``activate(obs, profiler=...)`` read it in
``Engine.__init__`` and route their dispatch through the profiled
drain.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

#: Event-label stem -> subsystem.  Stems not listed here surface as
#: ``other.<stem>`` so unclassified work is visible, never silently
#: folded into a named bucket.
STEM_SUBSYSTEMS: Dict[str, str] = {
    # sim kernel: unlabeled events
    "": "sim.process",
    # hypervisor
    "slice": "hypervisor.dispatch",
    "merge-thread": "hypervisor.merge",
    # FaaS platform
    "complete": "faas.gateway",
    "cluster-finish": "faas.cluster",
    "keepalive-evict": "faas.pool",
    "autoscale": "faas.autoscaler",
    # workload drivers
    "chaos-submit": "workload.submit",
    "recovery-submit": "workload.submit",
    "zoo-submit": "workload.submit",
    "usage-sample": "obs.usage",
    # failure injection
    "node-crash": "resilience.failures",
    "node-recover": "resilience.failures",
    "gateway-crash": "resilience.failures",
    "gateway-recover": "resilience.failures",
    # the retry ladder
    "resilience-rewait": "resilience.rewait",
    "resilience-capacity-wake": "resilience.capacity",
    "resilience-retry": "resilience.retry",
    "resilience-crash-retry": "resilience.retry",
    "resilience-hedge": "resilience.hedge",
    "resilience-hang": "resilience.hang",
    "resilience-complete": "resilience.complete",
}

#: Synthetic sites for work that is not an event callback.
SCHEDULER_SITE = ("sim.scheduler", "pop")
WATCHER_SITE = ("check.invariants", "watchers")
CANCELLED_SITE = ("sim.engine", "cancelled")
#: The wall-report bucket for cyclic-GC pauses.
GC_SUBSYSTEM = "gc"


class SubsystemProfiler:
    """Accumulates per-(phase, subsystem, site) attribution."""

    __slots__ = (
        "name",
        "_phase",
        "_sites",
        "_classify_cache",
        "scheduler_wall_ns",
        "watcher_wall_ns",
        "total_wall_ns",
        "started_wall_ns",
        "gc_wall_ns",
        "gc_collections",
        "_gc_started_ns",
    )

    def __init__(self, name: str = "profile") -> None:
        self.name = name
        self._phase = "main"
        #: (phase, subsystem, site) -> [samples, sim_ns, wall_ns]
        self._sites: Dict[Tuple[str, str, str], List[int]] = {}
        #: label stem -> (subsystem, site).  Keyed by the stem, not the
        #: label: per-invocation labels (``complete:<id>``) would each
        #: miss and add an entry, while stems are a handful per run.
        self._classify_cache: Dict[str, Tuple[str, str]] = {}
        self.scheduler_wall_ns = 0
        self.watcher_wall_ns = 0
        self.total_wall_ns = 0
        self.started_wall_ns = time.perf_counter_ns()
        #: wall time inside cyclic-GC collections, and their count per
        #: generation (filled by the gc.callbacks hook the run context installs)
        self.gc_wall_ns = 0
        self.gc_collections = [0, 0, 0]
        self._gc_started_ns = 0

    # ------------------------------------------------------------------
    def phase(self, name: str) -> None:
        """Start a new attribution phase (e.g. one chaos mode)."""
        self._phase = name

    def _classify(self, label: str) -> Tuple[str, str]:
        stem = label.partition(":")[0]
        cached = self._classify_cache.get(stem)
        if cached is None:
            subsystem = STEM_SUBSYSTEMS.get(stem)
            if subsystem is None:
                subsystem = f"other.{stem}"
            site = stem if stem else "unlabeled"
            cached = self._classify_cache[stem] = (subsystem, site)
        return cached

    def record(self, label: str, sim_delta_ns: int, wall_ns: int) -> None:
        """Attribute one executed event."""
        subsystem, site = self._classify(label)
        key = (self._phase, subsystem, site)
        cell = self._sites.get(key)
        if cell is None:
            cell = self._sites[key] = [0, 0, 0]
        cell[0] += 1
        cell[1] += sim_delta_ns
        cell[2] += wall_ns

    def record_cancelled(self) -> None:
        """A cancelled event was skipped (deterministic; no wall cost)."""
        key = (self._phase,) + CANCELLED_SITE
        cell = self._sites.get(key)
        if cell is None:
            cell = self._sites[key] = [0, 0, 0]
        cell[0] += 1

    def on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """The ``gc.callbacks`` hook: time one collection."""
        if phase == "start":
            self._gc_started_ns = time.perf_counter_ns()
        else:
            self.gc_wall_ns += time.perf_counter_ns() - self._gc_started_ns
            self.gc_collections[info["generation"]] += 1

    def finish(self) -> None:
        """Freeze total wall time (call once, after the last phase)."""
        self.total_wall_ns = time.perf_counter_ns() - self.started_wall_ns

    # ------------------------------------------------------------------
    # Deterministic artifacts
    # ------------------------------------------------------------------
    def _ordered(self) -> List[Tuple[Tuple[str, str, str], List[int]]]:
        """Rows ordered by (samples desc, phase, subsystem, site) — a
        total order independent of dict insertion history."""
        return sorted(
            self._sites.items(), key=lambda kv: (-kv[1][0], kv[0])
        )

    def collapsed_stacks(self) -> str:
        """Folded-stack text (flamegraph.pl / speedscope compatible)."""
        lines = [
            f"{self.name};{phase};{subsystem};{site} {cell[0]}"
            for (phase, subsystem, site), cell in self._ordered()
        ]
        return "\n".join(lines) + "\n"

    def hotspot_table(self) -> Dict[str, object]:
        """Machine-readable hotspot table (deterministic fields only)."""
        total_samples = sum(cell[0] for cell in self._sites.values())
        total_sim = sum(cell[1] for cell in self._sites.values())
        rows = [
            {
                "phase": phase,
                "subsystem": subsystem,
                "site": site,
                "samples": cell[0],
                "sim_ns": cell[1],
                "sample_share": round(cell[0] / total_samples, 6)
                if total_samples
                else 0.0,
            }
            for (phase, subsystem, site), cell in self._ordered()
        ]
        return {
            "profile": self.name,
            "total_samples": total_samples,
            "total_sim_ns": total_sim,
            "hotspots": rows,
        }

    def hotspot_json(self) -> str:
        return (
            json.dumps(self.hotspot_table(), indent=2, sort_keys=True) + "\n"
        )

    def hotspot_text(self, limit: Optional[int] = None) -> str:
        """Fixed-width hotspot table (deterministic; safe for stdout)."""
        table = self.hotspot_table()
        rows = table["hotspots"]
        if limit is not None:
            rows = rows[:limit]
        lines = [
            f"profile {self.name!r}: {table['total_samples']} events, "
            f"{table['total_sim_ns'] / 1e9:.3f} sim-s",
            f"  {'phase':<14s} {'subsystem':<22s} {'site':<24s} "
            f"{'samples':>9s} {'share':>7s}",
        ]
        for row in rows:
            lines.append(
                f"  {row['phase']:<14s} {row['subsystem']:<22s} "
                f"{row['site']:<24s} {row['samples']:>9d} "
                f"{100.0 * row['sample_share']:6.2f}%"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Wall-time report (machine-dependent; never written to artifacts)
    # ------------------------------------------------------------------
    def wall_report(self) -> str:
        """Human-readable wall-time attribution with coverage."""
        per_subsystem: Dict[str, int] = {}
        for (_phase, subsystem, _site), cell in self._sites.items():
            per_subsystem[subsystem] = per_subsystem.get(subsystem, 0) + cell[2]
        per_subsystem[SCHEDULER_SITE[0]] = (
            per_subsystem.get(SCHEDULER_SITE[0], 0) + self.scheduler_wall_ns
        )
        if self.watcher_wall_ns:
            per_subsystem[WATCHER_SITE[0]] = (
                per_subsystem.get(WATCHER_SITE[0], 0) + self.watcher_wall_ns
            )
        per_subsystem[GC_SUBSYSTEM] = self.gc_wall_ns
        attributed = sum(per_subsystem.values())
        total = self.total_wall_ns or attributed
        lines = [f"wall-time attribution for {self.name!r}:"]
        for subsystem, wall in sorted(
            per_subsystem.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            share = 100.0 * wall / attributed if attributed else 0.0
            line = f"  {subsystem:<24s} {wall / 1e6:10.2f} ms {share:6.2f}%"
            if subsystem == GC_SUBSYSTEM:
                line += (
                    "  collections gen0/1/2 "
                    + "/".join(str(n) for n in self.gc_collections)
                )
            lines.append(line)
        coverage = 100.0 * self.named_coverage()
        loop_share = 100.0 * attributed / total if total else 0.0
        lines.append(
            f"  named-subsystem coverage {coverage:.2f}% of attributed wall "
            f"({attributed / 1e6:.2f} ms; {loop_share:.1f}% of "
            f"{total / 1e6:.2f} ms total)"
        )
        return "\n".join(lines)

    def named_coverage(self) -> float:
        """Fraction of attributed wall time in named subsystems."""
        attributed = 0
        named = 0
        for (_phase, subsystem, _site), cell in self._sites.items():
            attributed += cell[2]
            if not subsystem.startswith("other."):
                named += cell[2]
        synthetic = self.scheduler_wall_ns + self.watcher_wall_ns + self.gc_wall_ns
        attributed += synthetic
        named += synthetic
        return named / attributed if attributed else 1.0

    def __repr__(self) -> str:
        return (
            f"SubsystemProfiler({self.name!r}, phase={self._phase!r}, "
            f"sites={len(self._sites)})"
        )
