"""Every ``repro`` module is reachable from something the program runs.

The walk starts from the entry points a user can execute: ``repro.cli``,
``repro.__main__``, the ``"module:function"`` strings the experiment
registry resolves lazily, and ``examples/*.py``.  It follows the static
import graph (imports inside functions count, since lazy imports are the
CLI's idiom).  Package ``__init__`` re-exports alone do not count as use:
``from repro.pkg import Name`` reaches the submodule that defines
``Name``, not every module the package re-exports.  A module nothing
reaches is dead weight: delete it, or wire it into a command.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules no entry point reaches on purpose, each with its reason.
ALLOWLIST = {
    "repro.resilience.checks": (
        "breaker and ledger checkers used as the oracle in "
        "tests/resilience/test_gateway.py; to be run by every experiment "
        "once the per-request lifecycle checks land (ROADMAP item 3)"
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


def _resolve(package_or_module: str, name: str) -> Optional[str]:
    """The module that defines *name* as seen through ``from X import name``."""
    submodule = f"{package_or_module}.{name}"
    if submodule in MODULES:
        return submodule
    if package_or_module not in MODULES:
        return None  # not a repro module (stdlib, third party)
    if not MODULES[package_or_module][1]:
        return package_or_module
    # A package: follow its own import of *name* (a re-export) to the
    # defining module, or stop here if the package body defines it.
    for node in ast.walk(_tree(package_or_module)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(_absolute(node, package_or_module), alias.name)
    return package_or_module


def _package_own_names(name: str) -> Set[str]:
    """Names a package's own functions and classes use (not re-exports)."""
    used = set()
    for node in _tree(name).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name):
                    used.add(inner.id)
    return used


def _edges(name: str, tree: ast.Module) -> Iterator[str]:
    """Modules *name* (or a script with AST *tree*) uses."""
    is_package = MODULES.get(name, (None, False))[1]
    own = _package_own_names(name) if is_package else None
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and own is None:
            for alias in node.names:
                if alias.name in MODULES:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node, name)
            for alias in node.names:
                if own is not None and (alias.asname or alias.name) not in own:
                    continue
                target = _resolve(source, alias.name)
                if target is not None:
                    yield target
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and own is None
        ):
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


def test_every_module_is_reached_from_an_entry_point():
    orphans = sorted(set(MODULES) - reached_modules() - set(ALLOWLIST))
    assert not orphans, (
        f"{len(orphans)} module(s) no CLI command, registry spec or example "
        f"reaches (delete them or wire them in): {', '.join(orphans)}"
    )


def test_allowlist_names_only_existing_unreached_modules():
    reached = reached_modules()
    for name, reason in ALLOWLIST.items():
        assert name in MODULES, f"{name} no longer exists; drop it"
        assert name not in reached, f"{name} is reached now; drop it"
        assert reason


def test_reexport_alone_does_not_reach_a_module():
    """``from repro.hypervisor import Host`` reaches ``cpu``, not the
    package's other re-exports."""
    tree = ast.parse("from repro.hypervisor import Host\n")
    assert set(_edges("__example__", tree)) == {"repro.hypervisor.cpu"}
