"""The observability bundle and the active-context stack.

:class:`Observability` pairs one :class:`~repro.obs.span.Tracer` with
one :class:`~repro.obs.metrics.MetricRegistry`; every instrumented
component holds a reference to exactly one bundle.  ``NULL_OBS`` is the
default everywhere — a single ``obs.enabled`` check is all an untraced
hot path pays.

The bundle is immutable: its tracer, registry and ``enabled`` flag
are fixed at construction.  A component may therefore bind instrument
handles once — at construction, or through the registry's
:meth:`~repro.obs.metrics.MetricRegistry.bound` cache — and never has
to re-check them.  To observe with a different tracer or registry,
build a new bundle.

The module also keeps the one *run context* stack: what is built
inside an :func:`activate` block reads the innermost
:class:`RunContext` at construction, so code that builds platforms
internally (experiment drivers, the CLI) runs instrumented without a
parameter threaded through every call site.  Platforms take the
bundle; an ``Engine`` takes the profiler; engines, hosts and sandbox
pools register their checkers with the invariant registry::

    obs = Observability()
    with activate(obs):
        run_figure2(...)          # platforms built inside pick up obs
    write_chrome_trace(obs.tracer, "figure2.trace.json")
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Any, Iterator, List, NamedTuple, Optional

from repro.obs.metrics import MetricRegistry, NULL_REGISTRY
from repro.obs.span import NULL_TRACER, Tracer


class Observability:
    """One tracer + one metric registry, wired together for good.

    All three attributes are plain slots (one attribute load on the hot
    path) that refuse assignment after construction.
    """

    __slots__ = ("tracer", "metrics", "enabled")

    tracer: Tracer
    metrics: MetricRegistry
    #: Fast-path guard: False only when both halves are null.
    enabled: bool

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        tracer = Tracer() if tracer is None else tracer
        metrics = MetricRegistry() if metrics is None else metrics
        setattr_ = object.__setattr__
        setattr_(self, "tracer", tracer)
        setattr_(self, "metrics", metrics)
        setattr_(self, "enabled", bool(tracer.enabled or metrics.enabled))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"Observability is immutable; build a new bundle instead of "
            f"setting {name!r}"
        )

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"Observability({state}, spans={len(self.tracer.spans)})"


#: Shared do-nothing bundle; the default for every component.
NULL_OBS = Observability(NULL_TRACER, NULL_REGISTRY)


class RunContext(NamedTuple):
    """What is built inside an :func:`activate` block reads: the bundle,
    a ``SubsystemProfiler`` or None, an ``InvariantRegistry`` or None."""

    obs: Observability
    profiler: Any = None
    invariants: Any = None


_active: List[RunContext] = [RunContext(NULL_OBS)]


def current() -> Observability:
    """The innermost activated bundle (``NULL_OBS`` when none is)."""
    return _active[-1].obs


def current_run() -> RunContext:
    """The innermost run context (a bare ``NULL_OBS`` one when none is)."""
    return _active[-1]


def phase(name: str) -> None:
    """Start attribution phase *name* in the active profiler, if any."""
    profiler = _active[-1].profiler
    if profiler is not None:
        profiler.phase(name)


@contextmanager
def activate(
    obs: Observability = NULL_OBS, profiler: Any = None, invariants: Any = None
) -> Iterator[Observability]:
    """Run the block under a run context holding only what is given
    (contexts do not inherit)."""
    _active.append(RunContext(obs, profiler, invariants))
    if profiler is not None:
        gc.callbacks.append(profiler.on_gc)
    try:
        yield obs
    finally:
        if profiler is not None:
            gc.callbacks.remove(profiler.on_gc)
        _active.pop()
