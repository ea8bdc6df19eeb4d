"""Loader for real Azure Public Dataset invocation files.

If a user has the actual dataset (per-minute invocation counts per
function, the `invocations_per_function_md.anon.*.csv` schema), this
loader converts a CSV into the same :class:`SyntheticTrace` container
the synthesizer produces, spreading each minute's count uniformly at
random inside the minute (the dataset's resolution is one minute).

The repository ships no dataset files; experiments fall back to
:func:`repro.traces.azure.synthesize_trace` when none is supplied.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path
from typing import List

from repro.sim.units import SECOND
from repro.traces.azure import AzureTraceConfig, SyntheticTrace


class TraceFormatError(Exception):
    """The CSV does not follow the Azure invocation-count schema."""


def load_azure_invocations_csv(
    path: Path | str,
    rng: random.Random,
    max_functions: int | None = None,
    max_minutes: int | None = None,
) -> SyntheticTrace:
    """Parse an Azure `invocations_per_function` CSV into a trace.

    The schema has metadata columns (HashOwner, HashApp, HashFunction,
    Trigger) followed by one column per minute ("1", "2", ..., "1440")
    holding invocation counts.  A count that is not a non-negative
    integer, or a second row for the same function, raises
    :class:`TraceFormatError`.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise TraceFormatError(f"{path}: empty CSV")
        minute_columns = [c for c in reader.fieldnames if c.isdigit()]
        if not minute_columns:
            raise TraceFormatError(
                f"{path}: no per-minute count columns found "
                f"(expected numeric column names)"
            )
        minute_columns.sort(key=int)
        if max_minutes is not None:
            minute_columns = minute_columns[:max_minutes]

        invocations: dict[str, List[int]] = {}
        for row_index, row in enumerate(reader):
            if max_functions is not None and row_index >= max_functions:
                break
            name = row.get("HashFunction") or f"row-{row_index}"
            if name in invocations:
                raise TraceFormatError(
                    f"{path}: duplicate row for function {name!r} "
                    f"(data row {row_index + 1})"
                )
            timestamps: List[int] = []
            for column in minute_columns:
                raw = row.get(column, "") or "0"
                try:
                    count = int(raw)
                except ValueError:
                    raise TraceFormatError(
                        f"{path}: non-integer count {raw!r} at "
                        f"function {name!r} minute {column}"
                    ) from None
                if count < 0:
                    raise TraceFormatError(
                        f"{path}: negative count {count} at "
                        f"function {name!r} minute {column}"
                    )
                minute_start = (int(column) - 1) * 60 * SECOND
                for _ in range(count):
                    timestamps.append(minute_start + round(rng.random() * 60 * SECOND))
            invocations[name] = sorted(timestamps)

    duration_s = len(minute_columns) * 60.0
    config = AzureTraceConfig(
        functions=max(1, len(invocations)), duration_s=duration_s
    )
    trace = SyntheticTrace(config=config)
    trace.invocations = invocations
    return trace
