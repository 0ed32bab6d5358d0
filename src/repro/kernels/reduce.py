"""Column reductions (global aggregates without GROUP BY).

These return Python scalars; NULLs are skipped per SQL semantics, and an
all-NULL (or empty) input reduces to ``None`` for sum/min/max/mean.
"""

from __future__ import annotations

import numpy as np

from ..columnar.dtypes import days_to_date
from ..gpu.costmodel import KernelClass
from .gtable import GColumn, _value_rows

__all__ = ["reduce_column"]


def reduce_column(column: GColumn, op: str):
    """Reduce ``column`` with ``op`` in
    {sum, min, max, count, count_star, count_distinct, mean}."""
    device = column.device
    device.launch(KernelClass.STREAM, column.traffic_bytes, 8, len(column))
    if op == "count_star":
        return int(len(column))
    values = column.data[_value_rows(column)]
    if op == "count":
        return int(len(values))
    if op == "count_distinct":
        return int(len(np.unique(values)))
    if len(values) == 0:
        return None
    if op == "sum":
        total = values.astype(np.float64).sum()
        return int(round(total)) if column.dtype.is_integer else float(total)
    if op == "mean":
        return float(values.astype(np.float64).mean())
    if op in ("min", "max"):
        raw = values.min() if op == "min" else values.max()
        if column.dtype.is_string:
            return str(column.dictionary[int(raw)])
        if column.dtype.is_temporal:
            return days_to_date(int(raw))
        return int(raw) if column.dtype.is_integer else float(raw)
    raise ValueError(f"unknown reduction {op!r}")
