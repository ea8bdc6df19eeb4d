"""Importing one layer loads only what that layer runs.

Every ``repro`` package ``__init__`` holds only its ``_EXPORTS`` table
and resolves a name on first access (:func:`repro.lazy_exports`), so
importing ``repro.check`` or a single driver must not pull in the
registry, the other drivers or the renderers, and each benchmark
workload's import probe loads no layer the workload does not run.
Only a fresh interpreter shows what an import loads: inside one test
process every module is already cached.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

#: benchmark workload -> (its import probe, the modules or packages
#: that probe must leave unloaded)
PROBES = {
    "replay-prewarm": (
        "repro.faas.prewarm",
        ("repro.hypervisor.pause_resume", "repro.core", "repro.resilience",
         "repro.check", "repro.obs", "repro.sim.engine",
         "repro.faas.autoscaler"),
    ),
    "resume-sweep": (
        "repro.hypervisor.platform, repro.core.hot_resume, repro.check",
        ("repro.check.runner", "repro.experiments", "repro.faas"),
    ),
    "recovery-pull": (
        "repro.experiments.cluster_recovery",
        ("repro.check", "repro.experiments.figure3", "repro.faas.prewarm",
         "repro.obs.profile", "repro.traces"),
    ),
}


def _loaded(modules: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after importing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    code = (
        f"import sys, repro, {modules}\n"
        "print(' '.join(m for m in sys.modules if m.startswith('repro')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return set(result.stdout.split())


def _unwanted(modules: str, unwanted) -> list:
    loaded = _loaded(modules)
    assert set(modules.split(", ")) <= loaded
    return sorted(
        name for name in loaded
        if any(name == u or name.startswith(u + ".") for u in unwanted)
    )


def test_driver_import_loads_no_registry_or_renderers():
    assert _unwanted(
        "repro.check, repro.experiments.cluster_recovery",
        ("repro.experiments.registry", "repro.experiments.colocation",
         "repro.analysis"),
    ) == []


@pytest.mark.parametrize("workload", sorted(PROBES))
def test_benchmark_probe_loads_no_layer_it_does_not_run(workload):
    modules, unwanted = PROBES[workload]
    assert _unwanted(modules, unwanted) == []


def test_recovery_pull_loads_one_event_kernel():
    """The engine's heap is the whole pending-event set: the kernel the
    recovery-pull probe loads is these modules and no scheduler."""
    loaded = _loaded(PROBES["recovery-pull"][0])
    assert sorted(name for name in loaded if name.startswith("repro.sim")) == [
        "repro.sim", "repro.sim.clock", "repro.sim.engine",
        "repro.sim.errors", "repro.sim.event", "repro.sim.rng",
        "repro.sim.sharding", "repro.sim.units",
    ]


_TIMED_CALL = """
import importlib, sys
sys.path.insert(0, sys.argv[2])
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[1]]
import repro
for name in workload.modules:
    importlib.import_module(name)
from repro.obs import NULL_TRACER, MetricRegistry, Observability, activate

def added(call):
    before = set(sys.modules)
    call()
    return sorted(m for m in set(sys.modules) - before if m.startswith("repro"))

plain = added(workload.prepare(0)[0])
with activate(Observability(NULL_TRACER, MetricRegistry())):
    observed = added(workload.prepare(0)[0])
print(" ".join(plain + observed))
"""


@pytest.mark.parametrize(
    "workload", ["chaos-churn", "recovery-pull", "resume-sweep", "replay-prewarm"]
)
def test_timed_benchmark_call_imports_no_module(workload):
    """Set-up pays every import: after the workload's import probe and
    ``prepare``, one timed call (plain, then with live metrics) loads no
    ``repro`` module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", _TIMED_CALL, workload,
         str(REPO_ROOT / "perfbench")],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == []


#: dotted name -> path of every package ``__init__`` but ``repro``'s own
PACKAGES = {
    ".".join(path.parent.relative_to(SRC).parts): path
    for path in sorted((SRC / "repro").rglob("__init__.py"))
    if path.parent != SRC / "repro"
}


def _table(path: Path) -> dict:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "_EXPORTS":
            return ast.literal_eval(node.value)
    return {}


#: the only top-level statements a package ``__init__`` may hold
_LAYOUT = (
    "from repro import lazy_exports",
    "_EXPORTS = ...",
    "__all__ = sorted(_EXPORTS)",
    "__getattr__ = lazy_exports(__name__, _EXPORTS)",
)


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_package_holds_only_its_exports_table(package):
    path = PACKAGES[package]
    body = ast.parse(path.read_text()).body
    if body and isinstance(body[0], ast.Expr):
        body = body[1:]  # the docstring
    statements = [
        "_EXPORTS = ..." if isinstance(node, ast.Assign)
        and node.targets[0].id == "_EXPORTS" else ast.unparse(node)
        for node in body
    ]
    assert statements in ([], list(_LAYOUT)), (
        f"{package} holds more than its _EXPORTS table: {statements}"
    )


@pytest.mark.parametrize(
    "package", [name for name, path in sorted(PACKAGES.items()) if _table(path)]
)
def test_every_export_is_its_submodules_object(package):
    module = importlib.import_module(package)
    table = module._EXPORTS
    assert module.__all__ == sorted(table)
    for name, source in table.items():
        assert getattr(module, name) is getattr(
            importlib.import_module(source), name
        ), f"{package}.{name} is not {source}.{name}"
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
