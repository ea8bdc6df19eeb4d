"""Platform factories: Firecracker and Xen assemblies."""

import pytest

from repro.hypervisor.platform import (
    firecracker_platform,
    platform_by_name,
    xen_platform,
)
from repro.hypervisor.scheduler.cfs import CfsPolicy
from repro.hypervisor.scheduler.credit2 import Credit2Policy


class TestFactories:
    def test_firecracker_uses_cfs(self):
        assert isinstance(firecracker_platform().policy, CfsPolicy)

    def test_xen_uses_credit2(self):
        assert isinstance(xen_platform().policy, Credit2Policy)

    def test_cost_models_match_platform(self):
        assert firecracker_platform().costs.name == "firecracker"
        assert xen_platform().costs.name == "xen"

    def test_default_host_is_r650(self):
        virt = firecracker_platform()
        assert virt.host.spec.name == "cloudlab-r650"
        assert virt.host.spec.total_cores == 72

    def test_default_one_ull_queue(self):
        assert len(firecracker_platform().host.ull_runqueues()) == 1

    def test_multiple_ull_queues(self):
        virt = firecracker_platform(reserved_ull_cores=4)
        assert len(virt.host.ull_runqueues()) == 4

    def test_lookup_by_name(self):
        assert platform_by_name("firecracker").name == "firecracker"
        assert platform_by_name("Xen").name == "xen"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            platform_by_name("hyperv")

    def test_runqueue_sort_key_follows_policy(self):
        """Xen queues order by credit, Firecracker by vruntime."""
        from repro.hypervisor.vcpu import Vcpu

        fc = firecracker_platform()
        xen = xen_platform()
        vcpu = Vcpu(index=0, sandbox_id="sb")
        vcpu.credit = 100.0
        vcpu.vruntime = 7.0
        assert fc.host.runqueue(0).sort_key(vcpu) == 7.0
        assert xen.host.runqueue(0).sort_key(vcpu) == -100.0
