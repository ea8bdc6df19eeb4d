"""One convention for every policy axis: a string-spec registry.

The repo grew three pluggable axes — event schedulers
(:mod:`repro.sim.schedulers`), prewarm/keep-alive policies
(:mod:`repro.faas.prewarm`) and dispatch policies
(:mod:`repro.resilience.policies`) — and, historically, three slightly
different selection shapes.  :class:`PolicyRegistry` is the shared
mechanism behind all of them:

* **string specs** — a policy is named by a string, either an exact
  family name (``"hybrid"``, ``"pull"``) or a parameterized form the
  family factory parses itself (``"hybrid-10"``, ``"pull-4"``);
* **registration** — ``register(family, factory)`` adds a family;
  factories receive the *full* spec string so parameter syntax stays
  the family's own business (and so error messages can be precise);
* **process default** — ``default()`` resolves, in order, the
  ``set_default()`` override, the axis's ``REPRO_*`` environment
  variable (a ``ValueError`` naming the variable if it names an
  unknown policy — a typo must not silently run the built-in), then
  the built-in;
* **discovery** — ``kinds()`` lists the registered spec syntaxes, which
  is what ``repro list --policies`` prints.

Determinism note: registries hold *factories*, not instances — every
``make()`` returns a fresh policy object so two simulations never share
mutable policy state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class _Family:
    name: str
    factory: Callable[[str], object]
    syntax: str
    #: when True, specs of the shape ``"<name>-<param>"`` also route to
    #: this family's factory (which parses — and may reject — the param)
    parameterized: bool


class PolicyRegistry:
    """String-spec → factory registry for one policy axis."""

    def __init__(self, axis: str, env_var: str, builtin: str) -> None:
        self.axis = axis
        self.env_var = env_var
        self._builtin = builtin
        self._families: Dict[str, _Family] = {}
        self._override: Optional[str] = None

    # ------------------------------------------------------------------
    def register(
        self,
        family: str,
        factory: Callable[[str], object],
        syntax: Optional[str] = None,
        parameterized: bool = False,
    ) -> None:
        """Add a policy family.  Rejects duplicate names: silently
        replacing a family would make ``make()`` results depend on
        import order."""
        if not family or family != family.strip():
            raise ValueError(f"bad {self.axis} policy family name {family!r}")
        if family in self._families:
            raise ValueError(
                f"{self.axis} policy {family!r} is already registered"
            )
        self._families[family] = _Family(
            name=family,
            factory=factory,
            syntax=syntax or family,
            parameterized=parameterized,
        )

    def make(self, spec: str) -> object:
        """Instantiate a fresh policy from a spec string."""
        family = self._families.get(spec)
        if family is None:
            # Parameterized form: the longest registered family that
            # prefixes "<family>-" wins (longest so e.g. a future
            # "pull-batch" family shadows "pull" + param "batch-...").
            best = None
            for candidate in self._families.values():
                if candidate.parameterized and spec.startswith(
                    candidate.name + "-"
                ):
                    if best is None or len(candidate.name) > len(best.name):
                        best = candidate
            family = best
        if family is None:
            raise ValueError(
                f"unknown {self.axis} policy {spec!r} "
                f"(want {' | '.join(self.kinds())})"
            )
        return family.factory(spec)

    def kinds(self) -> List[str]:
        """Registered spec syntaxes, sorted (stable for docs/CLI)."""
        return sorted(f.syntax for f in self._families.values())

    def families(self) -> List[str]:
        return sorted(self._families)

    # ------------------------------------------------------------------
    def set_default(self, spec: str) -> str:
        """Set the process-default spec; returns the previous effective
        default.  Validates eagerly — a typo should fail at the call
        site, not inside the first simulation that resolves it."""
        self.make(spec)
        previous = self.default()
        self._override = spec
        return previous

    def default(self) -> str:
        """Effective default: override > env var > builtin."""
        if self._override is not None:
            return self._override
        return self.env_spec() or self._builtin

    def env_spec(self) -> Optional[str]:
        """The env var's spec, or None when it is unset or blank.

        Read lazily (tests monkeypatch it); an invalid one raises a
        ``ValueError`` that names the variable.
        """
        env = os.environ.get(self.env_var, "").strip()
        if not env:
            return None
        try:
            self.make(env)
        except ValueError as exc:
            raise ValueError(f"{self.env_var}: {exc}") from None
        return env
