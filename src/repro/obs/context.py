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

The module also keeps a small *active context* stack so code that
builds platforms internally (experiment drivers, the CLI) can be
observed without threading a parameter through every call site::

    obs = Observability()
    with activate(obs):
        run_figure2(...)          # platforms built inside pick up obs
    write_chrome_trace(obs.tracer, "figure2.trace.json")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

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

_active: List[Observability] = [NULL_OBS]


def current() -> Observability:
    """The innermost activated bundle (``NULL_OBS`` when none is)."""
    return _active[-1]


@contextmanager
def activate(obs: Observability) -> Iterator[Observability]:
    """Make *obs* the default bundle for platforms built in the block."""
    _active.append(obs)
    try:
        yield obs
    finally:
        _active.pop()
