"""Helpers a result's ``rows()`` flattens itself with.

Every experiment result owns a ``rows()`` method that turns it into a
list of flat scalar dicts (the registry's JSON export).  The methods
import these helpers when called, so no driver's import loads this
module.
"""

from __future__ import annotations

import enum
from dataclasses import fields, is_dataclass
from typing import Any, Dict, List, Sequence, Tuple


def _scalarize(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (int, float, str, bool)):
        return value
    return None


def object_row(obj: Any, extra: Sequence[str] = ()) -> Dict[str, Any]:
    """Scalar fields of a dataclass, plus named computed properties."""
    names = [spec_field.name for spec_field in fields(obj)] if is_dataclass(obj) else []
    row: Dict[str, Any] = {}
    for name in [*names, *extra]:
        value = _scalarize(getattr(obj, name))
        if value is not None:
            row[name] = value
    return row


def sorted_cells(result: Any) -> List[Tuple[Tuple[str, Any], Any]]:
    """``result.cells`` items, keyed ``(name, scenario)``, in name then
    scenario-value order."""
    return sorted(
        result.cells.items(), key=lambda item: (item[0][0], item[0][1].value)
    )
