"""Scheduler policies: credit2 and CFS ordering semantics."""

import pickle

import pytest

from repro.hypervisor.runqueue import RunQueue
from repro.hypervisor.scheduler.cfs import CfsPolicy
from repro.hypervisor.scheduler.credit2 import (
    CREDIT_INITIAL,
    Credit2Policy,
)
from repro.hypervisor.vcpu import Vcpu
from repro.sim.units import microseconds, milliseconds


def make_vcpu(credit=0.0, vruntime=0.0, weight=1024.0):
    vcpu = Vcpu(index=0, sandbox_id="sb")
    vcpu.credit = credit
    vcpu.vruntime = vruntime
    vcpu.weight = weight
    return vcpu


class TestCredit2:
    def test_higher_credit_sorts_first(self):
        """Paper: queues sorted so the least-*spent* (most remaining
        credit) entity runs first."""
        policy = Credit2Policy()
        rich = make_vcpu(credit=5000.0)
        poor = make_vcpu(credit=100.0)
        assert policy.sort_key(rich) < policy.sort_key(poor)

    def test_on_enqueue_refills_exhausted_credit(self):
        policy = Credit2Policy()
        vcpu = make_vcpu(credit=0.0)
        policy.on_enqueue(vcpu)
        assert vcpu.credit == CREDIT_INITIAL

    def test_on_enqueue_keeps_positive_credit(self):
        policy = Credit2Policy()
        vcpu = make_vcpu(credit=777.0)
        policy.on_enqueue(vcpu)
        assert vcpu.credit == 777.0

    def test_charge_burns_credit(self):
        policy = Credit2Policy()
        vcpu = make_vcpu(credit=1000.0)
        policy.charge(vcpu, milliseconds(1))
        assert vcpu.credit < 1000.0

    def test_charge_negative_rejected(self):
        with pytest.raises(ValueError):
            Credit2Policy().charge(make_vcpu(), -1)

    def test_heavier_weight_burns_slower(self):
        policy = Credit2Policy()
        light = make_vcpu(credit=1000.0, weight=512.0)
        heavy = make_vcpu(credit=1000.0, weight=2048.0)
        policy.charge(light, milliseconds(1))
        policy.charge(heavy, milliseconds(1))
        assert heavy.credit > light.credit

    def test_default_timeslice_positive(self):
        assert Credit2Policy().default_timeslice_ns() > 0

    def test_bad_timeslice_rejected(self):
        with pytest.raises(ValueError):
            Credit2Policy(timeslice_ns=0)


class TestCfs:
    def test_lower_vruntime_sorts_first(self):
        policy = CfsPolicy()
        fresh = make_vcpu(vruntime=10.0)
        hog = make_vcpu(vruntime=1000.0)
        assert policy.sort_key(fresh) < policy.sort_key(hog)

    def test_sort_key_is_the_vruntime(self):
        policy = CfsPolicy()
        vcpu = make_vcpu(vruntime=42.5)
        assert policy.sort_key(vcpu) == vcpu.vruntime
        policy.charge(vcpu, 1000)
        assert policy.sort_key(vcpu) == vcpu.vruntime
        # The key takes no policy state, so queues may hold it unbound.
        assert CfsPolicy.sort_key(vcpu) == vcpu.vruntime

    def test_policy_pickles(self):
        policy = CfsPolicy(timeslice_ns=milliseconds(3))
        clone = pickle.loads(pickle.dumps(policy))
        vcpu = make_vcpu(vruntime=7.0)
        assert clone.sort_key(vcpu) == 7.0
        assert clone.default_timeslice_ns() == milliseconds(3)

    def test_charge_accumulates_vruntime(self):
        policy = CfsPolicy()
        vcpu = make_vcpu()
        policy.charge(vcpu, 1000)
        assert vcpu.vruntime == pytest.approx(1000.0)

    def test_heavier_weight_accumulates_slower(self):
        policy = CfsPolicy()
        light = make_vcpu(weight=512.0)
        heavy = make_vcpu(weight=2048.0)
        policy.charge(light, 1000)
        policy.charge(heavy, 1000)
        assert heavy.vruntime < light.vruntime

    def test_on_enqueue_lifts_laggard_to_min_vruntime(self):
        policy = CfsPolicy()
        runner = make_vcpu()
        policy.charge(runner, 10_000_000_000)  # drives min_vruntime up
        sleeper = make_vcpu(vruntime=0.0)
        policy.on_enqueue(sleeper)
        assert sleeper.vruntime > 0.0

    def test_charge_negative_rejected(self):
        with pytest.raises(ValueError):
            CfsPolicy().charge(make_vcpu(), -5)

    def test_policy_names(self):
        assert CfsPolicy().name == "cfs"
        assert Credit2Policy().name == "credit2"


class TestPolicyDrivenQueueIntegrity:
    """Rotate a live run queue under each policy, asserting integrity
    (sortedness, size, links) after every simulated quantum."""

    @pytest.mark.parametrize(
        "policy", [CfsPolicy(), Credit2Policy()], ids=["cfs", "credit2"]
    )
    def test_rotation_keeps_queue_sorted_every_quantum(self, policy):
        queue = RunQueue(
            runqueue_id=0, core_id=0, sort_key=policy.sort_key,
            timeslice_ns=policy.default_timeslice_ns(),
        )
        for index in range(6):
            vcpu = Vcpu(index=index, sandbox_id=f"sb-{index}")
            vcpu.weight = 512.0 * (1 + index % 3)
            policy.on_enqueue(vcpu)
            queue.enqueue_sorted(vcpu, 0)
        queue.check_invariants()

        now = 0
        for quantum in range(40):
            now += policy.default_timeslice_ns()
            head = queue.peek_next()
            assert head is not None
            queue.dequeue_all([head], now)
            policy.charge(head, policy.default_timeslice_ns())
            policy.on_enqueue(head)
            queue.enqueue_sorted(head, now)
            queue.check_invariants()
        assert len(queue) == 6

    def test_mixed_wakeups_and_departures_stay_sound(self):
        policy = CfsPolicy(timeslice_ns=microseconds(500))
        queue = RunQueue(
            runqueue_id=0, core_id=0, sort_key=policy.sort_key,
            timeslice_ns=policy.default_timeslice_ns(),
        )
        parked = []
        for index in range(8):
            vcpu = Vcpu(index=index, sandbox_id=f"sb-{index}")
            policy.on_enqueue(vcpu)
            queue.enqueue_sorted(vcpu, 0)
        queue.check_invariants()
        now = 0
        for step in range(60):
            now += policy.default_timeslice_ns()
            if step % 3 == 2 and parked:
                returning = parked.pop()
                policy.on_enqueue(returning)
                queue.enqueue_sorted(returning, now)
            else:
                head = queue.peek_next()
                if head is None:
                    continue
                queue.dequeue_all([head], now)
                policy.charge(head, policy.default_timeslice_ns())
                if step % 4 == 3:
                    parked.append(head)  # sleeps off-queue for a while
                else:
                    policy.on_enqueue(head)
                    queue.enqueue_sorted(head, now)
            queue.check_invariants()
        assert len(queue) + len(parked) == 8
