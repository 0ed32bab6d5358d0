"""Group-by aggregation kernels.

Mirrors the two libcudf strategies the paper's Figure 5 analysis leans on:

* **hash-based** group-by for fixed-width keys, with a GPU memory-contention
  penalty when the number of distinct groups is small (Q1's four groups);
* **sort-based** group-by whenever any key is a string (Q10, Q16, Q18) —
  libcudf's default for strings, noted by the paper as "less performant
  than hash-based group-by".

Supported aggregations: sum, min, max, count (valid), count_star,
count_distinct, and mean (sum/count fused here for convenience).

String min/max rely on the dictionary invariant maintained throughout the
kernel library: dictionaries are lexicographically sorted, so code order is
value order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..columnar import Field, INT64, FLOAT64, Schema
from ..gpu.costmodel import KernelClass
from .gtable import GColumn, GTable, _value_rows
from .keys import factorize_keys

__all__ = ["AggSpec", "groupby", "AGG_OPS"]


AGG_OPS = ("sum", "min", "max", "count", "count_star", "count_distinct", "mean")


@dataclass(frozen=True)
class AggSpec:
    """One requested aggregation.

    Attributes:
        op: One of :data:`AGG_OPS`.
        column: Input column; ``None`` only for ``count_star``.
        name: Output column name.
    """

    op: str
    column: GColumn | None
    name: str

    def __post_init__(self):
        if self.op not in AGG_OPS:
            raise ValueError(f"unknown aggregation {self.op!r}")
        if self.column is None and self.op != "count_star":
            raise ValueError(f"aggregation {self.op} requires an input column")


def groupby(keys: list[GColumn], aggs: list[AggSpec], force_hash: bool = False) -> GTable:
    """Aggregate ``aggs`` grouped by ``keys``; returns keys + agg columns.

    NULL key values form a single ordinary group (SQL semantics); NULL
    input values are skipped by every aggregate.

    Args:
        keys: Grouping key columns.
        aggs: Aggregations to compute.
        force_hash: Charge the hash-based strategy even for string keys —
            models a *custom* kernel that hashes strings directly instead
            of libcudf's sort-based fallback (an optimisation the paper's
            Figure 5 discussion motivates).
    """
    if not keys:
        raise ValueError("groupby requires at least one key; use reduce for global aggregates")
    device = keys[0].device
    # With NULLs matching, the codes are the group ids 0 .. num_groups - 1
    # in key order; each group is represented by its first row.
    gids, _, num_groups = factorize_keys(keys, nulls_match=True)
    rows = len(gids)
    first_idx = np.full(num_groups, rows, dtype=np.int64)
    np.minimum.at(first_idx, gids, np.arange(rows))

    key_bytes = sum(k.traffic_bytes for k in keys)
    value_bytes = sum(a.column.traffic_bytes for a in aggs if a.column is not None)
    sort_based = any(k.dtype.is_string for k in keys) and not force_hash
    kclass = KernelClass.GROUPBY_SORT if sort_based else KernelClass.GROUPBY_HASH
    device.launch(
        kclass,
        key_bytes + value_bytes,
        num_groups * 8 * (len(keys) + len(aggs)),
        rows,
        num_groups=num_groups,
    )

    out_cols: list[GColumn] = []
    out_fields: list[Field] = []
    for key in keys:
        data = key.data[first_idx]
        validity = None if key.validity is None else key.validity.array[first_idx]
        out_cols.append(
            GColumn.from_array(device, key.dtype, data, validity, key.dictionary)
        )
    for agg in aggs:
        col, dtype = _aggregate(device, agg, gids, num_groups)
        out_cols.append(col)
        out_fields.append(Field(agg.name, dtype))

    key_fields = [Field(f"key{i}", k.dtype) for i, k in enumerate(keys)]
    schema = Schema(key_fields + out_fields)
    return GTable(schema, out_cols, device)


def _aggregate(device, agg: AggSpec, gids: np.ndarray, num_groups: int):
    """Compute one aggregation; returns (GColumn, output DType)."""
    if agg.op == "count_star":
        counts = np.bincount(gids, minlength=num_groups).astype(np.int64)
        return GColumn.from_array(device, INT64, counts), INT64

    col = agg.column
    valid = _value_rows(col)

    if agg.op == "count":
        counts = np.bincount(gids[valid], minlength=num_groups).astype(np.int64)
        return GColumn.from_array(device, INT64, counts), INT64

    if agg.op == "count_distinct":
        vals = col.data[valid]
        sub_gids = gids[valid]
        if len(vals):
            _, value_codes = np.unique(vals, return_inverse=True)
            pairs = sub_gids.astype(np.int64) * (value_codes.max() + 1) + value_codes
            uniq_pairs = np.unique(pairs)
            counts = np.bincount(
                (uniq_pairs // (value_codes.max() + 1)).astype(np.int64),
                minlength=num_groups,
            ).astype(np.int64)
        else:
            counts = np.zeros(num_groups, dtype=np.int64)
        return GColumn.from_array(device, INT64, counts), INT64

    # sum / min / max / mean: value aggregations that skip NULLs and yield
    # NULL for all-NULL groups.
    counts = np.bincount(gids[valid], minlength=num_groups)
    group_has_value = counts > 0

    if agg.op in ("sum", "mean"):
        sums = np.bincount(gids[valid], weights=col.data[valid].astype(np.float64),
                           minlength=num_groups)
        if agg.op == "mean":
            # (not zeros_like: bincount of zero rows is int64 even with weights)
            out = np.divide(sums, counts, out=np.zeros(num_groups), where=counts > 0)
            return GColumn.from_array(device, FLOAT64, out, group_has_value), FLOAT64
        if col.dtype.is_integer:
            data = np.round(sums).astype(np.int64)
            return GColumn.from_array(device, INT64, data, group_has_value), INT64
        return GColumn.from_array(device, FLOAT64, sums, group_has_value), FLOAT64

    # min / max via sort + reduceat (works for every fixed-width dtype;
    # string columns aggregate on codes thanks to the sorted-dictionary
    # invariant).
    reducer = np.minimum if agg.op == "min" else np.maximum
    vals = col.data[valid]
    sub_gids = gids[valid]
    out = np.zeros(num_groups, dtype=col.data.dtype)
    if len(vals):
        order = np.argsort(sub_gids, kind="stable")
        sorted_gids = sub_gids[order]
        sorted_vals = vals[order]
        boundaries = np.flatnonzero(np.diff(sorted_gids)) + 1
        starts = np.concatenate([[0], boundaries])
        reduced = reducer.reduceat(sorted_vals, starts)
        present = sorted_gids[starts]
        out[present] = reduced
    return (
        GColumn.from_array(device, col.dtype, out, group_has_value, col.dictionary),
        col.dtype,
    )
