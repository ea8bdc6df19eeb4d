"""Performance gate: sim-kernel benchmarks and the regression check.

See :mod:`repro.perf.gate` for the benchmark definitions and the
``BENCH_sim_kernel.json`` schema, ``benchmarks/perf_gate.py`` for the
standalone entry point, and ``repro bench`` for the CLI front end.
"""

from repro import lazy_exports

_EXPORTS = {
    "BENCH_BASELINE": "repro.perf.gate",
    "run_benches": "repro.perf.gate",
    "check_against_baseline": "repro.perf.gate",
    "main": "repro.perf.gate",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
