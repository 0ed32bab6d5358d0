"""Row-movement kernels: gather, boolean masking, slicing, scatter,
concatenation.

These follow libcudf's copying module.  ``gather`` accepts the int32 index
arrays joins produce; a ``-1`` index yields a NULL output row (how outer
join results materialise).

Gather, mask, slice and scatter select rows through :func:`_take`, and
work out the selection once per table, not once per column:
``mask_table`` turns the boolean mask into row numbers once,
``gather_table`` converts the int32 map to ``np.intp`` and looks for
``-1`` once, and a scatter sorts the partition ids once for all of its
buckets.  As in libcudf, a column without a validity buffer is all-valid
and is never given an all-true one: an output carries a validity buffer
exactly when a row it selected is NULL.
The cost model sees none of this — each kernel charges the bytes and rows
it touches, whichever way NumPy got there.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..columnar import Field, Schema
from ..gpu.costmodel import KernelClass
from .compute import hash_partition_ids
from .gtable import GColumn, GTable, _concat_validity
from .keys import _merge_dictionaries

__all__ = [
    "gather_column",
    "gather_table",
    "mask_table",
    "concat_gtables",
    "scatter_to_partitions",
    "partition_by_keys",
    "slice_table",
]


def _take(
    column: GColumn, rows: np.ndarray | slice, null_rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(data, validity)`` of ``column`` at ``rows`` (row numbers or a
    slice).  ``null_rows`` marks output rows that are NULL whatever row
    they took; ``validity`` is ``None`` when no output row can be NULL."""
    data = column.data[rows]
    if column.validity is None:
        return data, None if null_rows is None else ~null_rows
    validity = column.validity.array[rows]
    if null_rows is not None:
        validity = validity & ~null_rows
    return data, validity


def _take_column(column: GColumn, rows: np.ndarray | slice) -> GColumn:
    """``column`` at ``rows`` as a new device column."""
    data, validity = _take(column, rows)
    return GColumn.from_array(column.device, column.dtype, data, validity, column.dictionary)


def _gather_map(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows a gather map takes, as ``np.intp`` (NumPy would convert an
    int32 map again for every column it indexes), and the output rows its
    ``-1`` entries make NULL (``None`` when it has none)."""
    rows = indices.astype(np.intp, copy=False)
    if len(rows) == 0 or rows.min() >= 0:
        return rows, None
    null_rows = rows < 0
    return np.where(null_rows, 0, rows), null_rows


def _gather(
    column: GColumn,
    indices: np.ndarray,
    rows: np.ndarray,
    null_rows: np.ndarray | None,
    charge: bool,
) -> GColumn:
    """One gather kernel: ``column`` at ``rows`` of :func:`_gather_map`.
    An empty column gathers NULLs whatever the map says."""
    device = column.device
    if len(column) == 0:
        data = np.zeros(len(indices), dtype=column.dtype.numpy_dtype)
        validity = np.zeros(len(indices), dtype=np.bool_)
    else:
        data, validity = _take(column, rows, null_rows)
    if charge:
        device.launch(
            KernelClass.GATHER,
            column.traffic_bytes + indices.nbytes,
            int(len(indices) * max(column.dtype.itemsize, 1)),
            len(indices),
        )
    return GColumn.from_array(device, column.dtype, data, validity, column.dictionary)


def gather_column(column: GColumn, indices: np.ndarray, charge: bool = True) -> GColumn:
    """Gather rows of ``column`` at ``indices`` (int32; -1 -> NULL)."""
    indices = np.asarray(indices)
    return _gather(column, indices, *_gather_map(indices), charge)


def gather_table(table: GTable, indices: np.ndarray) -> GTable:
    """Gather whole rows of ``table``; one gather kernel per column."""
    indices = np.asarray(indices)
    rows, null_rows = _gather_map(indices)
    cols = [_gather(c, indices, rows, null_rows, True) for c in table.columns]
    return GTable(table.schema, cols, table.device)


def mask_table(table: GTable, keep: np.ndarray) -> GTable:
    """Apply a boolean mask to every column (libcudf apply_boolean_mask).

    Charged as one streaming pass over the table plus the compacted output.
    """
    keep = np.asarray(keep, dtype=np.bool_)
    rows = np.flatnonzero(keep)
    device = table.device
    device.launch(
        KernelClass.STREAM,
        table.traffic_bytes + keep.nbytes,
        int(table.traffic_bytes * (len(rows) / max(table.num_rows, 1))),
        table.num_rows,
    )
    return GTable(table.schema, [_take_column(c, rows) for c in table.columns], device)


def slice_table(table: GTable, start: int, length: int) -> GTable:
    """Zero-ish-copy row slice (used by LIMIT); charges only output bytes.

    A slice starting past the last row is empty."""
    device = table.device
    end = max(min(start + length, table.num_rows), start)
    cols = [_take_column(c, slice(start, end)) for c in table.columns]
    device.launch(KernelClass.STREAM, 0, sum(c.nbytes for c in cols), end - start)
    return GTable(table.schema, cols, device)


class _Pieces(Sequence):
    """The buckets of one scatter, each copied out of the source table when
    it is taken: a caller that stores bucket ``p`` (as a spillable
    fragment, say) before taking ``p + 1`` needs pool headroom for one
    bucket, not the table.  The source must outlive the last bucket.

    One stable sort of the partition ids finds every bucket's rows, in
    source order, at once."""

    def __init__(self, table: GTable, part_ids: np.ndarray, num_partitions: int):
        self._table = table
        self._order = np.argsort(part_ids, kind="stable")
        counts = np.bincount(part_ids, minlength=num_partitions)[:num_partitions]
        self._bounds = np.concatenate(([0], np.cumsum(counts)))
        self._n = num_partitions

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, p: int) -> GTable | None:
        if not 0 <= p < self._n:
            raise IndexError(p)
        lo, hi = self._bounds[p], self._bounds[p + 1]
        if lo == hi:
            return None
        rows = self._order[lo:hi]
        table = self._table
        return GTable(table.schema, [_take_column(c, rows) for c in table.columns], table.device)


def scatter_to_partitions(
    table: GTable, part_ids: np.ndarray, num_partitions: int
) -> Sequence[GTable | None]:
    """Scatter rows into per-partition tables (libcudf ``partition``).

    Charged here, as one scatter pass over the whole table — a radix
    partitioning kernel reads each row once and writes it to its bucket,
    regardless of fan-out — though each bucket is built as it is taken.
    Empty partitions come back as ``None`` so callers can skip them
    without allocating empty tables.
    """
    part_ids = np.asarray(part_ids)
    table.device.launch(
        KernelClass.SCATTER,
        table.traffic_bytes + part_ids.nbytes,
        table.traffic_bytes,
        table.num_rows,
    )
    return _Pieces(table, part_ids, num_partitions)


def partition_by_keys(
    table: GTable, key_indices: Sequence[int], num_partitions: int, level: int = 0
) -> Sequence[GTable | None]:
    """Radix-partition ``table`` by the key columns at ``key_indices``.

    Rows with equal keys (NULL equal to NULL) land in the same bucket, so
    a group-by is exact bucket by bucket, and two join sides partitioned
    with the same ``(num_partitions, level)`` meet every matching pair in
    one bucket (Grace hash join).  ``level`` salts the hash so a bucket
    that was too large at depth ``L`` spreads across children at ``L+1``.
    Charged as one partition-id pass plus one scatter pass.
    """
    keys = [table.columns[i] for i in key_indices]
    ids = hash_partition_ids(keys, num_partitions, level=level)
    return scatter_to_partitions(table, ids, num_partitions)


def concat_gtables(tables: Sequence[GTable]) -> GTable:
    """Vertically concatenate device tables with matching schemas.

    String columns re-encode against a merged dictionary of the entries
    their valid rows reference (libcudf concatenates character buffers; we
    charge the equivalent traffic).
    """
    tables = [t for t in tables if t is not None]
    if not tables:
        raise ValueError("concat_gtables needs at least one table")
    device = tables[0].device
    schema = tables[0].schema
    for t in tables[1:]:
        if t.schema.dtypes() != schema.dtypes():
            raise ValueError("concat_gtables: mismatched schemas")
    total_rows = sum(t.num_rows for t in tables)
    total_bytes = sum(t.traffic_bytes for t in tables)
    device.launch(KernelClass.STREAM, total_bytes, total_bytes, total_rows)
    out_cols = []
    for i, field in enumerate(schema):
        parts = [t.columns[i] for t in tables]
        if field.dtype.is_string:
            dictionary, codes = _merge_dictionaries(parts)
            out_cols.append(
                GColumn.from_array(
                    device, field.dtype, codes.astype(np.int32), codes >= 0, dictionary
                )
            )
        else:
            data = np.concatenate([p.data for p in parts])
            out_cols.append(GColumn.from_array(device, field.dtype, data, _concat_validity(parts)))
    return GTable(Schema([Field(f.name, f.dtype) for f in schema]), out_cols, device)
