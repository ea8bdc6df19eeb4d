#!/usr/bin/env python
"""Standalone entry point for the sim-kernel performance gate.

Equivalent to ``repro bench``; kept under benchmarks/ so CI and local
runs can invoke it without installing the package::

    python benchmarks/perf_gate.py --quick --check

See :mod:`repro.perf.gate` for the bench definitions, the
``BENCH_sim_kernel.json`` row schema, and the normalization the
regression check applies.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.perf.gate import main

if __name__ == "__main__":
    raise SystemExit(main())
