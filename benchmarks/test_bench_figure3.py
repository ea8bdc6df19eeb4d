"""Bench F3 — regenerates Figure 3 (paper §5.1).

Resume time under vanil / ppsm / coal / horse across the vCPU sweep.
Paper bands: coal 16-20 %, ppsm 55-69 %, HORSE flat ~150 ns with >=
7.16x max speedup.  Also micro-benchmarks the two core operations in
real wall time: the O(1) P2SM splice vs the O(n) reference merge.
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.figures import render_figure3
from repro.core.hot_resume import HorseConfig, HorsePauseResume
from repro.core.linked_list import SortedLinkedList
from repro.core.p2sm import P2SMState, sorted_merge_reference
from repro.experiments.figure3 import run_figure3
from repro.experiments.runner import VCPU_SWEEP, fresh_platform
from repro.hypervisor.sandbox import Sandbox


@pytest.mark.benchmark(group="figure3")
def test_figure3_sweep(once):
    result = once(run_figure3, vcpu_counts=VCPU_SWEEP, repetitions=10)
    emit("Figure 3 — resume time per setup vs vCPUs", render_figure3(result))
    assert 0.14 <= result.min_improvement("coal")
    assert result.max_improvement("coal") <= 0.23
    assert 0.55 <= result.min_improvement("ppsm")
    assert result.max_improvement("ppsm") <= 0.69
    assert result.horse_flatness() == pytest.approx(1.0, abs=0.02)
    assert max(result.speedup("horse", v) for v in result.vcpu_counts()) >= 7.16


@pytest.mark.benchmark(group="figure3-micro")
def test_horse_resume_operation(benchmark):
    """Micro: the full HORSE fast-path resume (wall time)."""

    def setup():
        virt = fresh_platform()
        horse = HorsePauseResume(
            virt.host, virt.policy, virt.costs, config=HorseConfig.full()
        )
        sandbox = Sandbox(vcpus=36, memory_mb=512, is_ull=True)
        virt.vanilla.place_initial(sandbox, 0)
        horse.pause(sandbox, 0)
        return (horse, sandbox), {}

    def resume(horse, sandbox):
        return horse.resume(sandbox, 0)

    benchmark.pedantic(resume, setup=setup, rounds=20)


@pytest.mark.benchmark(group="figure3-micro")
@pytest.mark.parametrize("size", [100, 1000])
def test_p2sm_splice_vs_reference_merge(benchmark, size):
    """Micro: P2SM's merge phase is O(#positions) pointer writes while
    the reference sorted merge scans the target list — the wall-time gap
    should grow with the target size."""

    def setup():
        target = SortedLinkedList(key=lambda v: v)
        for value in range(0, size * 2, 2):
            target.insert_sorted(value)
        state = P2SMState([size * 2 + 1, size * 2 + 3], target)
        return (state,), {}

    benchmark.pedantic(lambda state: state.merge(), setup=setup, rounds=20)


@pytest.mark.benchmark(group="figure3-micro")
@pytest.mark.parametrize("queue_size", [10, 100, 1000])
def test_p2sm_precompute_scaling(benchmark, queue_size):
    """Micro: the pause-time precompute (arrayB + posA rebuild) is the
    cost P2SM shifts off the resume path; its wall time grows with the
    target queue size — measured here so the O(|A|+|B|) claim of
    §4.1.1 is visible in real time."""

    def setup():
        target = SortedLinkedList(key=lambda v: v)
        for value in range(queue_size):
            target.insert_sorted(value)
        state = P2SMState(list(range(queue_size, queue_size + 8)), target)
        return (state,), {}

    def rebuild(state):
        state.refresh()
        return state.pos_a  # the first read builds arrayB and posA

    benchmark.pedantic(rebuild, setup=setup, rounds=20)


@pytest.mark.benchmark(group="figure3-micro")
@pytest.mark.parametrize("size", [100, 1000])
def test_reference_merge_baseline(benchmark, size):
    def setup():
        target = SortedLinkedList(key=lambda v: v)
        for value in range(0, size * 2, 2):
            target.insert_sorted(value)
        return (target,), {}

    benchmark.pedantic(
        lambda target: sorted_merge_reference(
            target, [size * 2 + 1, size * 2 + 3]
        ),
        setup=setup,
        rounds=20,
    )
