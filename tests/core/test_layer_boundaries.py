"""The per-layer boundaries are called through their classes.

The benchmark's per-layer report (``perfbench/layers.py``) times
``P2SMState.refresh``, ``HorsePauseResume.pause``/``resume`` and
``VanillaPauseResume.pause``/``resume`` by patching each on its class
for a traced round.  A caller that bound one of them at import time, or
kept a bound method across calls, would run unpatched and blind the
report.  Here the same five are patched the same way and a short
HORSE-plus-vanilla cycle must reach each wrapper the expected number of
times: ``refresh`` once per tied state per reserved-queue update, plus
once per new state.
"""

import functools

import pytest

from repro.core.hot_resume import HorsePauseResume
from repro.core.p2sm import P2SMState
from repro.hypervisor.pause_resume import VanillaPauseResume
from repro.hypervisor.platform import firecracker_platform
from repro.hypervisor.sandbox import Sandbox

BOUNDARIES = (
    (P2SMState, "refresh"),
    (HorsePauseResume, "pause"),
    (HorsePauseResume, "resume"),
    (VanillaPauseResume, "pause"),
    (VanillaPauseResume, "resume"),
)


@pytest.fixture
def calls(monkeypatch):
    counts = {}
    for owner, attr in BOUNDARIES:
        name = f"{owner.__name__}.{attr}"
        counts[name] = 0
        original = vars(owner)[attr]

        @functools.wraps(original)
        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    return counts


def test_short_cycle_reaches_every_boundary(calls):
    virt = firecracker_platform()
    horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
    ull = horse.ull
    a, b, c = (Sandbox(vcpus=n, memory_mb=128, is_ull=True) for n in (2, 3, 4))
    plain = Sandbox(vcpus=4, memory_mb=128)
    for sandbox in (a, b, c, plain):
        virt.vanilla.place_initial(sandbox, 0)

    # Off general queues: no reserved-queue update, one new state each.
    horse.pause(a, 1_000)
    horse.pause(b, 2_000)
    assert calls["P2SMState.refresh"] == 2
    # a merges into the reserved queue: its update refreshes b.
    horse.resume(a, 3_000)
    assert calls["P2SMState.refresh"] == 3
    # a comes off the reserved queue (refreshes b) and gets a new state.
    horse.pause(a, 4_000)
    horse.pause(c, 5_000)
    assert calls["P2SMState.refresh"] == 6
    # b merges: its update refreshes a and c.
    horse.resume(b, 6_000)
    assert calls["P2SMState.refresh"] == 8

    virt.vanilla.pause(plain, 7_000)
    virt.vanilla.resume(plain, 8_000)
    virt.vanilla.pause(plain, 9_000)

    assert calls == {
        "P2SMState.refresh": 8,
        "HorsePauseResume.pause": 4,
        "HorsePauseResume.resume": 2,
        "VanillaPauseResume.pause": 2,
        "VanillaPauseResume.resume": 1,
    }
    # The manager's own tally agrees: the four refreshes it made on
    # queue updates, plus the four pauses' new states.
    assert ull.refresh_operations == 4
