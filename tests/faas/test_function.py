"""FunctionSpec and registry validation."""

import pytest

from repro.faas.function import FunctionRegistry, FunctionSpec
from repro.workloads import FirewallWorkload, ThumbnailWorkload
from repro.workloads.base import WorkloadCategory


class TestFunctionSpec:
    def test_defaults(self):
        spec = FunctionSpec("fw", FirewallWorkload())
        assert spec.vcpus == 1
        assert spec.memory_mb == 512
        assert spec.provisioned_concurrency == 0

    def test_ull_follows_workload(self):
        assert FunctionSpec("fw", FirewallWorkload()).is_ull
        assert not FunctionSpec("thumb", ThumbnailWorkload()).is_ull

    def test_ull_is_read_from_the_category_when_asked(self):
        # Chaos's vanilla mode re-categorises the firewall in place.
        workload = FirewallWorkload()
        spec = FunctionSpec("fw", workload)
        workload.category = WorkloadCategory.BACKGROUND
        assert not spec.is_ull
        workload.category = WorkloadCategory.CATEGORY_3
        assert spec.is_ull

    def test_zero_vcpus_rejected(self):
        with pytest.raises(ValueError):
            FunctionSpec("fw", FirewallWorkload(), vcpus=0)

    def test_zero_memory_rejected(self):
        with pytest.raises(ValueError):
            FunctionSpec("fw", FirewallWorkload(), memory_mb=0)

    def test_negative_provisioning_rejected(self):
        with pytest.raises(ValueError):
            FunctionSpec("fw", FirewallWorkload(), provisioned_concurrency=-1)


class TestRegistry:
    def test_register_and_get(self):
        registry = FunctionRegistry()
        spec = FunctionSpec("fw", FirewallWorkload())
        registry.register(spec)
        assert registry.get("fw") is spec
        assert "fw" in registry
        assert len(registry) == 1

    def test_duplicate_name_rejected(self):
        registry = FunctionRegistry()
        registry.register(FunctionSpec("fw", FirewallWorkload()))
        with pytest.raises(ValueError):
            registry.register(FunctionSpec("fw", FirewallWorkload()))

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            FunctionRegistry().get("nope")

    def test_names_sorted(self):
        registry = FunctionRegistry()
        registry.register(FunctionSpec("zeta", FirewallWorkload()))
        registry.register(FunctionSpec("alpha", ThumbnailWorkload()))
        assert registry.names() == ["alpha", "zeta"]
