"""No ``repro`` module imports a name it never uses.

A name an ``import`` binds in a ``src/repro`` module is used when it
appears in that module as a name (an attribute chain's root included),
inside a string annotation, or in ``__all__``.  Exempt are package
``__init__`` modules, whose imports are re-exports, and
``from __future__`` imports.  The test is the lint step: an unused
import is a dependency the module does not have.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"


def _imported(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)


def _used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            )
    return used


def unused_imports(path: Path) -> Iterator[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    relative = path.relative_to(SRC / "repro")
    for name, line in _imported(tree):
        if name not in used:
            yield f"{relative}:{line} {name}"


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        entry
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path.name != "__init__.py"
        for entry in unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_rule_sees_annotations_all_and_attribute_roots(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "from x import Quoted, Exported, Unused\n"
        "__all__ = ['Exported']\n"
        "def f(a: 'Optional[Quoted]') -> List[int]:\n"
        "    return os.path.join(a)\n"
    )
    tree = ast.parse(module.read_text())
    used = _used(tree)
    assert {name for name, _ in _imported(tree) if name not in used} == {
        "Dict", "Unused"
    }
