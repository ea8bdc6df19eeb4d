"""Every ``repro`` module and public symbol is reachable from something
the program runs.

Modules: the walk starts from the entry points a user can execute:
``repro.cli``, ``repro.__main__``, the ``"module:function"`` strings the
experiment registry resolves lazily, and ``examples/*.py``.  It follows
the static import graph (imports inside functions count, since lazy
imports are the CLI's idiom).  A package's ``_EXPORTS`` table alone
does not count as use: ``from repro.pkg import Name`` reaches the
submodule the table names for ``Name``, not every module in the table.

Symbols: a public (no leading underscore) function, class or method
defined in ``src/repro`` is reached when its name appears outside its
own definition, in ``src/repro``, ``examples/``, ``benchmarks/`` or
``perfbench/``, as a name, an attribute, an import outside a package
``__init__``, a keyword argument, or a word of a string constant that is
not a docstring (perfbench's patch targets are strings).  ``__all__``
and ``_EXPORTS`` entries, package imports, docstrings and comments do
not count, and a use in ``tests/`` does not either.  Any two symbols
with one name reach each other: the rule is conservative on purpose.

Whatever nothing reaches is dead weight: delete it, or wire it in.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_WIRED_LATER = (
    "checker to be run by every experiment once the per-request "
    "lifecycle checks land (ROADMAP item 3)"
)

#: What nothing reaches on purpose, each with its reason: a module
#: (``"repro.pkg.mod"``, which also covers every symbol in it) or a
#: symbol (``"repro.pkg.mod:Class.method"``).  Only three reasons are
#: valid: a test oracle or reference, a checker ROADMAP item 3 wires in,
#: and a read-only accessor tests assert through.
ALLOWLIST = {
    "repro.resilience.checks": (
        "breaker and ledger checkers used as the oracle in "
        "tests/resilience/test_gateway.py; " + _WIRED_LATER
    ),
    "repro.controlplane.checks:fencing_checker": _WIRED_LATER,
    "repro.controlplane.checks:no_duplicate_routing_checker": _WIRED_LATER,
    "repro.sim.sharding:merged_pending": (
        "oracle: the single-engine pending order the sharded merge must "
        "reproduce (tests/sim/test_shard_invariance.py)"
    ),
    "repro.traces.replay:materialized_oracle": (
        "oracle: the materialized trace the streaming replay must equal "
        "(tests/traces/test_replay_properties.py)"
    ),
    "repro.traces.replay:SplitMix64.next_u64": (
        "reference: the textbook SplitMix64 step the inlined draws must "
        "match (tests/traces/test_replay.py)"
    ),
    "repro.hypervisor.cpu:Host.memory_used_mb": (
        "read-only accessor tests assert memory accounting through"
    ),
    "repro.hypervisor.memory:GuestMemory.resident_pages": (
        "read-only accessor tests assert page residency through"
    ),
    "repro.obs.span:Tracer.find": (
        "read-only accessor tests assert recorded spans through"
    ),
    "repro.controlplane.intentlog:IntentLog.outcome_of": (
        "read-only accessor tests assert logged outcomes through"
    ),
    "repro.core.ull_runqueue:UllRunqueueManager.assigned_to": (
        "read-only accessor tests assert reserved-queue ties through"
    ),
    "repro.faas.pool:SandboxPool.idle_sandboxes": (
        "read-only accessor tests assert pool contents through"
    ),
    "repro.traces.replay:function_profile": (
        "read-only accessor tests assert the replay population's cohorts "
        "and periods through (tests/traces/test_replay.py)"
    ),
    "repro.faas.keepalive:IdleHistogram.percentile_bin": (
        "read-only accessor tests assert the nearest-rank cursors "
        "through, against the nearest_rank_bin oracle in "
        "tests/faas/test_prewarm.py"
    ),
    "repro.core.coalesce:apply_n_times": (
        "reference: the step-by-step iteration the coalesced update must "
        "match (tests/core/test_coalesce.py, "
        "tests/hypervisor/test_load_tracking.py)"
    ),
}

_TARGET = re.compile(r"^(repro(?:\.\w+)+):\w+$")


def _modules() -> Dict[str, Tuple[Path, bool]]:
    """Dotted name -> (path, is_package) for every module under src/repro."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        found[".".join(parts)] = (path, is_package)
    return found


MODULES = _modules()
_TREES: Dict[str, ast.Module] = {}


def _tree(name: str) -> ast.Module:
    if name not in _TREES:
        _TREES[name] = ast.parse(MODULES[name][0].read_text())
    return _TREES[name]


def _absolute(node: ast.ImportFrom, importer: str) -> str:
    """The absolute module an ``ImportFrom`` in *importer* names."""
    if not node.level:
        return node.module or ""
    package = importer if MODULES.get(importer, (None, False))[1] else (
        importer.rpartition(".")[0]
    )
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def exports_table(tree: ast.Module) -> Dict[str, str]:
    """A package's ``_EXPORTS`` table: name -> defining submodule."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)
        ):
            return ast.literal_eval(node.value)
    return {}


def _resolve(package_or_module: str, name: str) -> Optional[str]:
    """The module that defines *name* as seen through ``from X import name``."""
    submodule = f"{package_or_module}.{name}"
    if submodule in MODULES:
        return submodule
    if package_or_module not in MODULES:
        return None  # not a repro module (stdlib, third party)
    if not MODULES[package_or_module][1]:
        return package_or_module
    # A package: its _EXPORTS table names the defining submodule, or
    # the package body defines *name* itself.
    table = exports_table(_tree(package_or_module))
    return table[name] if name in table else package_or_module


def _edges(name: str, tree: ast.Module) -> Iterator[str]:
    """Modules *name* (or a script with AST *tree*) uses.  A package
    uses none: it holds only its ``_EXPORTS`` table, which is no use."""
    if MODULES.get(name, (None, False))[1]:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node, name)
            for alias in node.names:
                target = _resolve(source, alias.name)
                if target is not None:
                    yield target
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _TARGET.match(node.value)
            if match and match.group(1) in MODULES:
                yield match.group(1)


def reached_modules() -> Set[str]:
    reached: Set[str] = set()
    frontier = ["repro.cli", "repro.__main__"]
    for script in sorted((ROOT / "examples").glob("*.py")):
        frontier.extend(_edges("__example__", ast.parse(script.read_text())))
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier.extend(_edges(name, _tree(name)))
    # Importing a module runs every enclosing package's __init__.
    for name in list(reached):
        while "." in name:
            name = name.rpartition(".")[0]
            reached.add(name)
    return reached


# ----------------------------------------------------------------------
# Symbols
# ----------------------------------------------------------------------
_WORD = re.compile(r"[A-Za-z_]\w*")


def _scripts() -> Dict[str, Path]:
    """Label -> path for the non-package files whose uses count."""
    found = {}
    for directory in ("examples", "benchmarks", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            found[str(path.relative_to(ROOT))] = path
    return found


def public_definitions(module: str, tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``("module:Qual.name", node)`` per public function, class and
    method (methods of nested classes included)."""

    def visit(body, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield f"{module}:{prefix}{node.name}", node
                if isinstance(node, ast.ClassDef):
                    yield from visit(node.body, f"{prefix}{node.name}.")

    yield from visit(tree.body, "")


_NOT_USES = ("__all__", "_EXPORTS")


def _docstrings_and_all(tree: ast.Module) -> Set[int]:
    """ids of the nodes whose strings do not count as uses: docstrings,
    and the ``__all__`` and ``_EXPORTS`` tables."""
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            skipped.add(id(node.body[0].value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id in _NOT_USES for t in targets):
                skipped.update(id(inner) for inner in ast.walk(node.value))
    return skipped


def names_used(tree: ast.Module, is_package: bool) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` for every use of a name in *tree*, per the rule."""
    skipped = _docstrings_and_all(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not is_package:
            for alias in node.names:
                for part in alias.name.split("."):
                    yield part, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            for word in _WORD.findall(node.value):
                yield word, node.lineno


def unreached_symbols(
    modules: Dict[str, Tuple[ast.Module, bool]], scripts: Dict[str, ast.Module]
) -> Set[str]:
    """Public symbols of *modules* no use in *modules* or *scripts* reaches.

    *modules* maps a dotted name to ``(tree, is_package)``; only modules
    define symbols.  A use inside the symbol's own definition (its body,
    decorators included) does not reach it.
    """
    uses: Dict[str, list] = {}
    for name, (tree, is_package) in modules.items():
        for used, line in names_used(tree, is_package):
            uses.setdefault(used, []).append((name, line))
    for label, tree in scripts.items():
        for used, line in names_used(tree, False):
            uses.setdefault(used, []).append((label, line))
    unreached = set()
    for module, (tree, _is_package) in modules.items():
        for symbol, node in public_definitions(module, tree):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            span = range(first, node.end_lineno + 1)
            if all(
                where == module and line in span
                for where, line in uses.get(node.name, ())
            ):
                unreached.add(symbol)
    return unreached


def repo_unreached_symbols() -> Set[str]:
    modules = {name: (_tree(name), MODULES[name][1]) for name in MODULES}
    scripts = {
        label: ast.parse(path.read_text()) for label, path in _scripts().items()
    }
    return unreached_symbols(modules, scripts)


def _allowed(symbol: str) -> bool:
    return symbol in ALLOWLIST or symbol.partition(":")[0] in ALLOWLIST


# ----------------------------------------------------------------------
def test_every_module_is_reached_from_an_entry_point():
    modules = {name for name in ALLOWLIST if ":" not in name}
    orphans = sorted(set(MODULES) - reached_modules() - modules)
    assert not orphans, (
        f"{len(orphans)} module(s) no CLI command, registry spec or example "
        f"reaches (delete them or wire them in): {', '.join(orphans)}"
    )


def test_every_public_symbol_is_named_outside_its_definition():
    orphans = sorted(s for s in repo_unreached_symbols() if not _allowed(s))
    assert not orphans, (
        f"{len(orphans)} public symbol(s) nothing outside tests/ names "
        f"(delete them, or allowlist an oracle, a ROADMAP item 3 checker "
        f"or a read-only accessor): {', '.join(orphans)}"
    )


def test_allowlist_names_only_existing_unreached_modules():
    """Module and symbol entries alike: each exists, is unreached and
    has a reason."""
    reached = reached_modules()
    unreached = repo_unreached_symbols()
    defined = {
        symbol
        for name in MODULES
        for symbol, _node in public_definitions(name, _tree(name))
    }
    for name, reason in ALLOWLIST.items():
        assert reason, f"{name} needs a reason"
        if ":" in name:
            assert name in defined, f"{name} no longer exists; drop it"
            assert name in unreached, f"{name} is reached now; drop it"
        else:
            assert name in MODULES, f"{name} no longer exists; drop it"
            assert name not in reached, f"{name} is reached now; drop it"


def test_reexport_alone_does_not_reach_a_module(monkeypatch):
    """``from repro.hypervisor import Host`` reaches ``cpu``, not the
    other modules the package's ``_EXPORTS`` table names."""
    tree = ast.parse("from repro.hypervisor import Host\n")
    assert set(_edges("__example__", tree)) == {"repro.hypervisor.cpu"}
    # The same rule on a synthetic package: its table is no import.
    package = (
        "from repro import lazy_exports\n"
        "_EXPORTS = {'A': 'pkg.a', 'B': 'pkg.b'}\n"
        "__all__ = sorted(_EXPORTS)\n"
        "__getattr__ = lazy_exports(__name__, _EXPORTS)\n"
    )
    for name, text, is_package in (
        ("pkg", package, True),
        ("pkg.a", "class A: ...\n", False),
        ("pkg.b", "class B: ...\n", False),
    ):
        monkeypatch.setitem(MODULES, name, (Path(name), is_package))
        monkeypatch.setitem(_TREES, name, ast.parse(text))
    assert set(_edges("pkg", _tree("pkg"))) == set()
    assert set(_edges("__example__", ast.parse("from pkg import A\n"))) == {"pkg.a"}
    # A name the table does not list stays with the package.
    assert set(_edges("__example__", ast.parse("from pkg import C\n"))) == {"pkg"}


def _unreached(
    sources: Dict[str, str], scripts: Optional[Dict[str, str]] = None
) -> Set[str]:
    """The rule on synthetic modules (``name`` or ``name/__init__``)."""
    modules = {
        name.replace("/__init__", ""): (ast.parse(text), name.endswith("/__init__"))
        for name, text in sources.items()
    }
    return unreached_symbols(
        modules,
        {label: ast.parse(text) for label, text in (scripts or {}).items()},
    )


def test_docstrings_all_and_reexports_do_not_reach_a_symbol():
    sources = {
        "pkg/__init__": (
            '"""Re-exports ``helper``."""\n'
            "from pkg.mod import helper\n"
            "__all__ = ['helper']\n"
        ),
        "pkg.mod": (
            "def helper():\n"
            '    """helper calls helper()."""\n'
            "    return helper()  # helper\n"
        ),
    }
    assert _unreached(sources) == {"pkg.mod:helper"}
    sources["pkg/__init__"] = (
        '"""Exports ``helper`` lazily."""\n'
        "from repro import lazy_exports\n"
        "_EXPORTS = {'helper': 'pkg.mod'}\n"
        "__all__ = sorted(_EXPORTS)\n"
        "__getattr__ = lazy_exports(__name__, _EXPORTS)\n"
    )
    assert _unreached(sources) == {"pkg.mod:helper"}


def test_strings_attributes_keywords_and_imports_reach_a_symbol():
    sources = {
        "pkg.mod": (
            "class Boundary:\n"
            "    def patched(self): ...\n"
            "    def read(self): ...\n"
            "def configured(): ...\n"
            "def imported(): ...\n"
        )
    }
    scripts = {
        "perfbench/layers.py": (
            "TARGETS = [('pkg.mod', 'Boundary', 'patched')]\n"
            "from pkg.mod import imported\n"
            "row(configured=1)\n"
            "obj.read\n"
        ),
    }
    assert _unreached(sources) == {
        "pkg.mod:Boundary",
        "pkg.mod:Boundary.patched",
        "pkg.mod:Boundary.read",
        "pkg.mod:configured",
        "pkg.mod:imported",
    }
    assert _unreached(sources, scripts) == set()
