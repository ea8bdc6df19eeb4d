"""End-to-end instrumentation of the resume hot path.

Drives a real FaaS platform under an activated observability bundle and
checks the acceptance properties: the invocation/resume span nesting,
the HORSE precompute tree, and the exact reconciliation between the
per-phase histograms and the resume spans' totals.
"""

import pytest

from repro.faas.function import FunctionSpec
from repro.faas.invocation import StartType
from repro.faas.platform import FaaSPlatform
from repro.obs import (
    RESUME_DISPATCH_NS,
    RESUME_LOAD_UPDATE_NS,
    RESUME_MERGE_NS,
    RESUME_TOTAL_NS,
    Observability,
    activate,
)
from repro.sim.units import seconds
from repro.workloads.firewall import FirewallWorkload


@pytest.fixture
def traced_run():
    """One provisioned HORSE invocation plus one WARM (vanilla resume)
    invocation, fully traced."""
    obs = Observability()
    with activate(obs):
        faas = FaaSPlatform.build("firecracker", seed=7)
        faas.register(FunctionSpec("fw", FirewallWorkload(), vcpus=2))
        faas.provision_warm("fw", count=1, use_horse=True)
        faas.trigger("fw", StartType.HORSE)
        faas.engine.run(until=faas.engine.now + seconds(1))
        faas.provision_warm("fw", count=1, use_horse=False)
        faas.trigger("fw", StartType.WARM)
        faas.engine.run(until=faas.engine.now + seconds(1))
    return obs


class TestSpanNesting:
    def test_resume_nests_under_invocation(self, traced_run):
        tracer = traced_run.tracer
        invocations = tracer.find("invocation")
        resumes = tracer.find("resume")
        assert invocations and resumes
        invocation_ids = {s.span_id for s in invocations}
        assert all(r.parent_id in invocation_ids for r in resumes)

    def test_hot_resume_has_the_paper_phases(self, traced_run):
        tracer = traced_run.tracer
        horse = [r for r in tracer.find("resume")
                 if r.attrs.get("path") == "horse"]
        assert horse
        children = tracer.children_of(horse[0])
        names = [c.name for c in children]
        assert names == [
            "parse", "lock", "sanity", "merge", "load_update", "dispatch",
        ]

    def test_precompute_happens_at_pause(self, traced_run):
        # HORSE moves the merge/load work into the pause: the pause
        # span owns a precompute subtree.
        tracer = traced_run.tracer
        pauses = [p for p in tracer.find("pause")
                  if p.attrs.get("path") == "horse"]
        assert pauses
        precomputes = tracer.find("precompute")
        assert precomputes
        pause_ids = {p.span_id for p in pauses}
        assert all(pc.parent_id in pause_ids for pc in precomputes)
        subtree = {c.name for pc in precomputes
                   for c in tracer.children_of(pc)}
        assert subtree == {"sort_vcpus", "p2sm_refresh", "coalesce"}

    def test_vanilla_resume_traced_too(self, traced_run):
        tracer = traced_run.tracer
        vanilla = [r for r in tracer.find("resume")
                   if r.attrs.get("path") == "vanilla"]
        assert vanilla

    def test_phases_tile_every_resume_exactly(self, traced_run):
        tracer = traced_run.tracer
        for resume in tracer.find("resume"):
            children = tracer.children_of(resume)
            assert sum(c.duration_ns for c in children) == resume.duration_ns
            # back-to-back, starting at the root's start
            cursor = resume.start_ns
            for child in children:
                assert child.start_ns == cursor
                cursor = child.end_ns

    def test_tracks_are_cpu_and_sandbox(self, traced_run):
        tracer = traced_run.tracer
        resume = tracer.find("resume")[0]
        assert tracer.process_names[resume.pid].startswith("cpu")
        assert tracer.thread_names[(resume.pid, resume.tid)].startswith("sb-")


class TestMetricReconciliation:
    def test_phase_histograms_sum_to_span_total_within_1pct(self, traced_run):
        histograms = traced_run.metrics.histograms()
        total = histograms[RESUME_TOTAL_NS].sum
        parts = (
            histograms[RESUME_MERGE_NS].sum
            + histograms[RESUME_LOAD_UPDATE_NS].sum
            + histograms[RESUME_DISPATCH_NS].sum
        )
        assert total > 0
        assert abs(parts - total) <= 0.01 * total

    def test_histogram_totals_match_span_durations(self, traced_run):
        histograms = traced_run.metrics.histograms()
        span_total = sum(
            r.duration_ns for r in traced_run.tracer.find("resume")
        )
        assert histograms[RESUME_TOTAL_NS].sum == span_total

    def test_resume_count_matches_spans(self, traced_run):
        counters = traced_run.metrics.counters()
        spans = traced_run.tracer.find("resume")
        assert counters["resume.count"].value == len(spans)

    def test_gateway_and_pool_counters(self, traced_run):
        counters = traced_run.metrics.counters()
        assert counters["gateway.trigger"].value == 2
        assert counters["gateway.complete"].value == 2
        assert counters["pool.hit"].value == 2
        assert counters["gateway.start.horse"].value == 1
        assert counters["gateway.start.warm"].value == 1

    def test_load_folds_counted_once(self):
        """A platform built under ``activate`` attaches its host to the
        registry twice (hypervisor build, then FaaS platform); each fold
        still counts once."""
        obs = Observability()
        with activate(obs):
            faas = FaaSPlatform.build("firecracker", seed=7)
            faas.register(FunctionSpec("fw", FirewallWorkload(), vcpus=2))
            faas.provision_warm("fw", count=2, use_horse=True)
            faas.trigger("fw", StartType.HORSE)
            faas.engine.run(until=faas.engine.now + seconds(1))
        loads = [rq.load for rq in faas.virt.host.runqueues.values()]
        iterated = sum(load.folds_iterated for load in loads)
        coalesced = sum(load.folds_coalesced for load in loads)
        assert iterated + coalesced > 0
        snapshot = obs.metrics.snapshot()
        assert snapshot["load.fold.iterated"]["value"] == iterated
        assert snapshot["load.fold.coalesced"]["value"] == coalesced


class TestZeroOverheadDefault:
    def test_untraced_platform_records_nothing(self):
        from repro.obs.context import NULL_OBS

        faas = FaaSPlatform.build("firecracker", seed=7)
        assert faas.obs is NULL_OBS
        faas.register(FunctionSpec("fw", FirewallWorkload()))
        faas.provision_warm("fw", count=1, use_horse=True)
        faas.trigger("fw", StartType.HORSE)
        faas.engine.run(until=faas.engine.now + seconds(1))
        assert len(NULL_OBS.tracer.spans) == 0


class TestNoRegistryCallPerVcpu:
    """Per-vCPU counts are the model's own ints, exported at snapshot
    time: after construction, a resume/pause cycle under live metrics
    makes the same registry calls whatever the sandbox's vCPU count."""

    @staticmethod
    def _registry_calls(path, vcpus, monkeypatch):
        from repro.core.hot_resume import HorsePauseResume
        from repro.hypervisor.platform import firecracker_platform
        from repro.hypervisor.sandbox import Sandbox
        from repro.obs import NULL_TRACER, MetricRegistry

        horse = path == "horse"
        with activate(Observability(NULL_TRACER, MetricRegistry())):
            virt = firecracker_platform()
            engine = (
                HorsePauseResume(virt.host, virt.policy, virt.costs)
                if horse else virt.vanilla
            )
        sandbox = Sandbox(vcpus=vcpus, memory_mb=512,
                          sandbox_id=f"{path}-{vcpus}", is_ull=horse)
        calls = []
        for name in ("counter", "gauge", "bound"):
            def spy(self, *args, _original=getattr(MetricRegistry, name),
                    _name=name, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(MetricRegistry, name, spy)
        try:
            virt.vanilla.place_initial(sandbox, 0)
            engine.pause(sandbox, 1_000)
            engine.resume(sandbox, 2_000)
            engine.pause(sandbox, 3_000)
        finally:
            monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("path", ["vanilla", "horse"])
    def test_registry_calls_do_not_grow_with_vcpus(self, path, monkeypatch):
        one = self._registry_calls(path, 1, monkeypatch)
        many = self._registry_calls(path, 8, monkeypatch)
        assert many == one
