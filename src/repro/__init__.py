"""repro: a full reproduction of "HORSE: Ultra-low latency workloads
on FaaS platforms" (Mvondo, Taiani, Bromberg — Middleware '24).

Layout (see DESIGN.md for the complete inventory):

* :mod:`repro.sim` — discrete-event simulation kernel;
* :mod:`repro.hypervisor` — Firecracker/KVM-like and Xen-like
  virtualization substrate (run queues, schedulers, PELT, DVFS,
  pause/resume, snapshots);
* :mod:`repro.core` — HORSE itself: P2SM, load-update coalescing,
  reserved uLL run queues, the hot-resume fast path;
* :mod:`repro.faas` — the FaaS platform (functions, pools, start
  strategies, gateway);
* :mod:`repro.workloads` — the paper's function bodies;
* :mod:`repro.traces` — Azure-like arrival synthesis and loading;
* :mod:`repro.metrics` — statistics and usage sampling;
* :mod:`repro.experiments` — one driver per paper table/figure;
* :mod:`repro.analysis` — renders the paper's tables and series.

Quick start::

    from repro.faas import FaaSPlatform, FunctionSpec, StartType
    from repro.workloads import FirewallWorkload

    faas = FaaSPlatform.build("firecracker", seed=1)
    faas.register(FunctionSpec("fw", FirewallWorkload()))
    faas.provision_warm("fw", count=1)
    inv = faas.trigger("fw", StartType.HORSE, run_logic=True)
    faas.engine.run()
    print(inv.initialization_ns, "ns to a ready sandbox")
"""

import sys
from typing import Any, Callable, Dict

__version__ = "1.0.0"

__all__ = ["__version__", "lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` (PEP 562) of every ``repro`` package.

    *exports* maps each public name to the submodule that defines it.
    The first access imports that submodule and caches the value in the
    package, so importing a package loads none of its submodules and
    importing one submodule loads none of its siblings.
    """

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # ``__import__``, not ``importlib.import_module``: only the
        # former shows up in ``python -X importtime``.
        __import__(module)
        value = getattr(sys.modules[module], name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
