"""Golden pin of the obs-on metric values the resilient request path emits.

The goldens in ``golden/`` pin what the chaos and recovery studies
*render*; this one pins what they *count* with a metric registry
attached: every ``resilience.*``, ``gateway.*``, ``cluster.degrade.*``,
run-queue, scheduler and pause instrument, with its value.  Comparison
is by value, not by registration order.

Regenerate (only when a change is meant to move a metric) with::

    PYTHONPATH=src python tests/resilience/test_metric_snapshot.py
"""

import json
from pathlib import Path

from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.experiments.cluster_recovery import ClusterRecoveryConfig, run_recovery
from repro.experiments.figure3 import run_figure3
from repro.obs import NULL_TRACER, MetricRegistry, Observability, activate

GOLDEN = Path(__file__).parent / "golden" / "metrics_snapshot_seed0.json"

#: The runs pinned: the fast chaos shape (all three modes into one
#: registry), the fast ``cluster_recovery`` registry shape, and the
#: Figure 3 sweep on each platform, which pins the per-policy
#: ``scheduler.<name>.enqueue`` and run-queue counts outside the FaaS
#: stack.
RUNS = {
    "chaos": lambda: run_chaos(ChaosConfig(hosts=2, requests=200, seed=0)),
    "cluster_recovery": lambda: run_recovery(
        ClusterRecoveryConfig(groups=2, requests=200, seed=0), shards=1
    ),
    "figure3_firecracker": lambda: run_figure3(
        vcpu_counts=(1, 8, 36), repetitions=2, platform="firecracker"
    ),
    "figure3_xen": lambda: run_figure3(
        vcpu_counts=(1, 8, 36), repetitions=2, platform="xen"
    ),
}


def _snapshot(run) -> dict:
    registry = MetricRegistry()
    with activate(Observability(NULL_TRACER, registry)):
        run()
    # A JSON round trip gives the same plain types the golden holds.
    return json.loads(json.dumps(registry.snapshot()))


def test_obs_on_metric_values_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(RUNS)
    for name, run in RUNS.items():
        assert _snapshot(run) == golden[name], name


if __name__ == "__main__":
    snapshots = {name: _snapshot(run) for name, run in RUNS.items()}
    GOLDEN.write_text(json.dumps(snapshots, indent=1, sort_keys=True) + "\n")
