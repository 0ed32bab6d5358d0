"""Row-movement kernels: gather, boolean masking, slicing, concatenation.

These follow libcudf's copying module.  ``gather`` accepts the int32 index
arrays joins produce; a ``-1`` index yields a NULL output row (how outer
join results materialise).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..columnar import Field, Schema
from ..gpu.costmodel import KernelClass
from .compute import hash_partition_ids
from .gtable import GColumn, GTable
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


def gather_column(column: GColumn, indices: np.ndarray, charge: bool = True) -> GColumn:
    """Gather rows of ``column`` at ``indices`` (int32; -1 -> NULL)."""
    device = column.device
    indices = np.asarray(indices)
    null_out = indices < 0
    safe = np.where(null_out, 0, indices)
    if len(column) == 0:
        data = np.zeros(len(indices), dtype=column.dtype.numpy_dtype)
        validity = np.zeros(len(indices), dtype=np.bool_)
    else:
        data = column.data[safe]
        validity = column.valid_mask()[safe]
        validity = validity & ~null_out
    if charge:
        device.launch(
            KernelClass.GATHER,
            column.traffic_bytes + indices.nbytes,
            int(len(indices) * max(column.dtype.itemsize, 1)),
            len(indices),
        )
    return GColumn.from_array(device, column.dtype, data, validity, column.dictionary)


def gather_table(table: GTable, indices: np.ndarray) -> GTable:
    """Gather whole rows of ``table``; one gather kernel per column."""
    cols = [gather_column(c, indices) for c in table.columns]
    return GTable(table.schema, cols, table.device)


def mask_table(table: GTable, keep: np.ndarray) -> GTable:
    """Apply a boolean mask to every column (libcudf apply_boolean_mask).

    Charged as one streaming pass over the table plus the compacted output.
    """
    keep = np.asarray(keep, dtype=np.bool_)
    device = table.device
    out_rows = int(keep.sum())
    device.launch(
        KernelClass.STREAM,
        table.traffic_bytes + keep.nbytes,
        int(table.traffic_bytes * (out_rows / max(table.num_rows, 1))),
        table.num_rows,
    )
    cols = []
    for c in table.columns:
        data = c.data[keep]
        validity = c.valid_mask()[keep]
        cols.append(GColumn.from_array(device, c.dtype, data, validity, c.dictionary))
    return GTable(table.schema, cols, device)


def slice_table(table: GTable, start: int, length: int) -> GTable:
    """Zero-ish-copy row slice (used by LIMIT); charges only output bytes."""
    device = table.device
    end = min(start + length, table.num_rows)
    cols = []
    for c in table.columns:
        data = c.data[start:end]
        validity = c.valid_mask()[start:end]
        cols.append(GColumn.from_array(device, c.dtype, data, validity, c.dictionary))
    device.launch(KernelClass.STREAM, 0, sum(c.nbytes for c in cols), end - start)
    return GTable(table.schema, cols, device)


class _Pieces(Sequence):
    """The buckets of one scatter, each copied out of the source table when
    it is taken: a caller that stores bucket ``p`` (as a spillable
    fragment, say) before taking ``p + 1`` needs pool headroom for one
    bucket, not the table.  The source must outlive the last bucket."""

    def __init__(self, table: GTable, part_ids: np.ndarray, num_partitions: int):
        self._table = table
        self._ids = part_ids
        self._n = num_partitions

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, p: int) -> GTable | None:
        if not 0 <= p < self._n:
            raise IndexError(p)
        rows = np.flatnonzero(self._ids == p)
        if len(rows) == 0:
            return None
        table = self._table
        cols = [
            GColumn.from_array(
                table.device, c.dtype, c.data[rows], c.valid_mask()[rows], c.dictionary
            )
            for c in table.columns
        ]
        return GTable(table.schema, cols, table.device)


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
            validity = np.concatenate([p.valid_mask() for p in parts])
            out_cols.append(GColumn.from_array(device, field.dtype, data, validity))
    return GTable(Schema([Field(f.name, f.dtype) for f in schema]), out_cols, device)
