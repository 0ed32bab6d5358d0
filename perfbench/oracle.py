"""Result checking: canonical rows and a tolerance-aware comparison.

The oracle is MiniDuck's own CPU engine, run once per distinct statement
in the warm-up round.  Engines may differ in row order (no ORDER BY) and
in the last digits of float sums (summation order), never in anything
else, so rows are compared in a canonical order with a relative float
tolerance.  This is the benchmark's own canonicaliser on purpose: it must
not change when ``repro.bench`` does.
"""

from __future__ import annotations

import math

REL_TOL = 1e-6


def _plain(value):
    if hasattr(value, "item"):  # NumPy scalar
        value = value.item()
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float, str)) or value is None:
        return value
    return str(value)  # dates and anything else compare by their text


def _sort_key(row: tuple) -> tuple:
    # Floats are keyed at six significant digits so that two engines'
    # last-digit differences cannot reorder otherwise equal rows.
    key = []
    for v in row:
        if v is None:
            key.append((0, ""))
        elif isinstance(v, (int, float)):
            key.append((1, f"{float(v):+.6e}"))
        else:
            key.append((2, v))
    return tuple(key)


def canonical_rows(table) -> list[tuple]:
    """Rows of a ``repro.columnar.Table`` in canonical order."""
    rows = [tuple(_plain(v) for v in row) for row in table.to_rows()]
    rows.sort(key=_sort_key)
    return rows


def _same(x, y) -> bool:
    if x is None or y is None:
        return x is None and y is None
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        if isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y):
            return True
        return math.isclose(float(x), float(y), rel_tol=REL_TOL, abs_tol=REL_TOL)
    return x == y


def rows_match(got: list[tuple], expected: list[tuple]) -> bool:
    if len(got) != len(expected):
        return False
    for row_g, row_e in zip(got, expected):
        if len(row_g) != len(row_e):
            return False
        if not all(_same(x, y) for x, y in zip(row_g, row_e)):
            return False
    return True
