"""Importing one experiment driver loads only what that driver needs.

``repro.experiments`` is a plain package: importing ``repro.check`` or a
single driver must not pull in the registry, the other drivers or the
renderers.  Only a fresh interpreter shows what an import loads: inside
one test process every module is already cached.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

UNWANTED = (
    "repro.experiments.registry",
    "repro.experiments.colocation",
    "repro.analysis",
)


def test_driver_import_loads_no_registry_or_renderers():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    code = (
        "import sys, repro.check, repro.experiments.cluster_recovery\n"
        f"print(' '.join(m for m in {UNWANTED!r} if m in sys.modules))"
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
    assert result.stdout.strip() == ""
