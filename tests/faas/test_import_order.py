"""Each FaaS lifecycle module imports cleanly as the *first* import.

``platform -> pool -> keepalive`` and ``prewarm -> autoscaler`` are
import chains; the autoscaler refers to ``FaaSPlatform`` only in an
annotation, so importing it (and so the replay) loads no platform, and
no chain closes into a cycle.  Only a fresh interpreter per module
shows such a cycle: inside one test process every module is already
cached.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

MODULES = (
    "repro.faas.autoscaler",
    "repro.faas.keepalive",
    "repro.faas.platform",
    "repro.faas.pool",
    "repro.faas.prewarm",
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr[-2000:]
