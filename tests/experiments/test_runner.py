"""Shared experiment machinery."""

import pytest

from repro.experiments.runner import (
    DEFAULT_REPETITIONS,
    RepeatedMeasurement,
    fresh_platform,
    paused_sandbox,
)
from repro.hypervisor.sandbox import SandboxState


class TestRepeatedMeasurement:
    def test_mean_and_ci(self):
        m = RepeatedMeasurement("x")
        for v in (1.0, 2.0, 3.0):
            m.add(v)
        assert m.mean == 2.0
        assert m.ci95.n == 3

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            _ = RepeatedMeasurement("x").mean

    def test_paper_ci_quality_on_resume_measurements(self):
        """The paper claims 10 reps give <= 3 % CIs; our deterministic
        cost model trivially satisfies it — guard it stays that way."""
        result = RepeatedMeasurement("resume")
        for _ in range(DEFAULT_REPETITIONS):
            virt = fresh_platform()
            sandbox = paused_sandbox(virt, vcpus=4)
            result.add(virt.vanilla.resume(sandbox, 0).total_ns)
        assert result.ci95.half_width <= 0.03 * result.mean


class TestFixtures:
    def test_fresh_platform_independent(self):
        a = fresh_platform()
        b = fresh_platform()
        assert a.host is not b.host

    def test_paused_sandbox_state(self):
        virt = fresh_platform()
        sandbox = paused_sandbox(virt, vcpus=3)
        assert sandbox.state is SandboxState.PAUSED
        assert sandbox.vcpu_count == 3

