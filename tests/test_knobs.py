"""Every config knob is turned by something the program runs.

A public field with a default on a public ``@dataclass`` in
``src/repro`` whose name ends in ``Config``, ``Policy`` or ``Spec`` is a
knob.  A knob is *set* when its name appears in ``src/repro``,
``examples/``, ``benchmarks/`` or ``perfbench/`` as a keyword argument
of any call (``replace(...)``, ``dict(...)``, ``cls(...)``) or as a
string key of a dict display.  A use in ``tests/`` does not count.  The
rule matches by name, so two knobs with one name set each other: it is
conservative on purpose.

A knob nothing sets has one value in use: make it a constant.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set, Tuple

from tests.test_reachability import MODULES, _scripts, _tree

_SUFFIXES = ("Config", "Policy", "Spec")

#: Knobs nothing sets that stay on purpose, each with its reason.
_PROTECT = (
    "removing the autoscaler-protection switch moves "
    "CellStats.protected_skips, which replay-prewarm's digest hashes; "
    "the benchmark change of ROADMAP item 1 owns it"
)
ALLOWLIST = {
    "repro.faas.prewarm:PrewarmConfig.autoscale_protect": _PROTECT,
    "repro.faas.prewarm:PrewarmConfig.protect_window_s": _PROTECT,
    "repro.faas.prewarm:PrewarmConfig.protect_headroom": _PROTECT,
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", ""
        )
        if name == "dataclass":
            return True
    return False


def knobs(module: str, tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """``("module:Class.field", field)`` per knob defined in *tree*."""
    for node in tree.body:
        if not (
            isinstance(node, ast.ClassDef)
            and not node.name.startswith("_")
            and node.name.endswith(_SUFFIXES)
            and _is_dataclass(node)
        ):
            continue
        for item in node.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and not item.target.id.startswith("_")
                and item.value is not None
                and "ClassVar" not in ast.unparse(item.annotation)
            ):
                yield f"{module}:{node.name}.{item.target.id}", item.target.id


def names_set(tree: ast.Module) -> Iterator[str]:
    """Names *tree* sets: call keywords and string keys of dict displays."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield key.value


def unset_knobs(
    modules: Dict[str, ast.Module], scripts: Dict[str, ast.Module]
) -> Set[str]:
    """Knobs of *modules* that no call or dict in *modules* or *scripts* sets."""
    used: Set[str] = set()
    for tree in list(modules.values()) + list(scripts.values()):
        used.update(names_set(tree))
    return {
        knob
        for module, tree in modules.items()
        for knob, field in knobs(module, tree)
        if field not in used
    }


def repo_unset_knobs() -> Set[str]:
    modules = {name: _tree(name) for name in MODULES}
    scripts = {
        label: ast.parse(path.read_text()) for label, path in _scripts().items()
    }
    return unset_knobs(modules, scripts)


# ----------------------------------------------------------------------
def test_every_knob_is_set_outside_tests():
    orphans = sorted(repo_unset_knobs() - set(ALLOWLIST))
    assert not orphans, (
        f"{len(orphans)} config field(s) nothing outside tests/ sets "
        f"(make each a constant): {', '.join(orphans)}"
    )


def test_allowlist_names_only_existing_unset_knobs():
    unset = repo_unset_knobs()
    for knob, reason in ALLOWLIST.items():
        assert reason, f"{knob} needs a reason"
        assert knob in unset, f"{knob} is set now or gone; drop it"


def test_keywords_and_dict_keys_set_a_knob():
    modules = {
        "pkg.mod": ast.parse(
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class WidgetConfig:\n"
            "    required: int\n"
            "    by_keyword: int = 1\n"
            "    by_dict_key: int = 2\n"
            "    unset: int = 3\n"
            "    _private: int = 4\n"
            "@dataclass\n"
            "class Widget:\n"
            "    not_a_knob: int = 5\n"
        )
    }
    scripts = {
        "examples/demo.py": ast.parse(
            "replace(cfg, by_keyword=2)\n"
            "shape = {'by_dict_key': 3}\n"
            "cfg.unset\n"
            "unset = 9\n"
        )
    }
    assert unset_knobs(modules, {}) == {
        "pkg.mod:WidgetConfig.by_keyword",
        "pkg.mod:WidgetConfig.by_dict_key",
        "pkg.mod:WidgetConfig.unset",
    }
    assert unset_knobs(modules, scripts) == {"pkg.mod:WidgetConfig.unset"}
