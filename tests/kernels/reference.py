"""Reference formulations the kernels are compared against, array for array.

These are the sort-based implementations the kernel library shipped with
before its key handling went direct-addressed: every key row is decoded
and ranked with ``np.unique`` (one row sort per key column, one more over
the combined codes), joins stable-sort the build codes and binary-search
them, group-by finds groups with a third ``np.unique``, and string
concatenation decodes and re-sorts every row.  They are slow and obviously
right; ``test_differential.py`` requires the kernels to return arrays equal
to theirs in dtype, shape and every element.

The key references charge no device and build no ``GTable``: results are
plain arrays (group-by returns one ``(dtype, data, validity, dictionary)``
per output column).  The row-movement and expression references at the
end are whole kernels, charges and allocations included, because what
``test_row_movement.py`` and ``test_compute_reference.py`` compare is the
device they leave behind.
"""

from datetime import date

import numpy as np

from repro.columnar import BOOL, DATE32, FLOAT64, INT64, Field, Schema
from repro.columnar.dtypes import common_numeric_type, date_to_days
from repro.gpu.costmodel import KernelClass
from repro.kernels import GColumn, GTable
from repro.kernels.compute import _device_of, _dtype_of, _rows_of, _traffic

NULL_CODE = np.int64(-1)


def _column_values(col):
    return col.decoded() if col.dtype.is_string else col.data


def _column_mask(col):
    mask = col.valid_mask()
    if col.dtype.is_string:
        mask = mask & (col.data >= 0)
    return mask


def factorize_keys(left, right=(), nulls_match=False):
    n_left = len(left[0])
    n_right = len(right[0]) if right else 0
    combined = np.zeros(n_left + n_right, dtype=np.int64)
    any_null = np.zeros(n_left + n_right, dtype=np.bool_)
    running_card = 1
    for idx, lcol in enumerate(left):
        rcol = right[idx] if right else None
        values = _column_values(lcol)
        mask = _column_mask(lcol)
        if rcol is not None:
            values = np.concatenate([values, _column_values(rcol)])
            mask = np.concatenate([mask, _column_mask(rcol)])
        codes = np.zeros(len(values), dtype=np.int64)
        if bool(mask.any()):
            _, inverse = np.unique(values[mask], return_inverse=True)
            codes[mask] = inverse.astype(np.int64)
        card = int(codes[mask].max()) + 1 if bool(mask.any()) else 0
        codes[~mask] = card
        has_null = bool((~mask).any())
        col_card = max(card + (1 if has_null else 0), 1)
        combined = combined * np.int64(col_card) + codes
        any_null |= ~mask
        running_card *= col_card
        if running_card > 2**40:
            _, inv = np.unique(combined, return_inverse=True)
            combined = inv.astype(np.int64)
            running_card = int(combined.max()) + 1 if len(combined) else 1
    uniq, inverse = np.unique(combined, return_inverse=True)
    dense = inverse.astype(np.int64)
    if not nulls_match:
        dense[any_null] = NULL_CODE
    return dense[:n_left].copy(), dense[n_left:].copy(), len(uniq)


# -- joins --------------------------------------------------------------------


def _match_ranges(build_codes, probe_codes):
    order = np.argsort(build_codes, kind="stable")
    sorted_codes = build_codes[order]
    lo = np.searchsorted(sorted_codes, probe_codes, side="left")
    hi = np.searchsorted(sorted_codes, probe_codes, side="right")
    hi = np.where(probe_codes == NULL_CODE, lo, hi)
    n_null_build = int((build_codes == NULL_CODE).sum())
    if n_null_build:
        lo = np.maximum(lo, n_null_build)
        hi = np.maximum(hi, lo)
    return order, lo, hi


def _expand(order, lo, hi):
    counts = hi - lo
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    if total == 0:
        return probe_idx, np.empty(0, dtype=np.int64), counts
    starts = np.repeat(lo, counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    return probe_idx, order[starts + offsets], counts


def inner_join(left_keys, right_keys, build_on_smaller=True):
    """``(left_indices, right_indices)`` as int32.  The kernel library
    builds on the smaller side; the custom sort-merge join always on the
    right, which changes the order of the pairs."""
    lcodes, rcodes, _ = factorize_keys(left_keys, right_keys)
    if len(rcodes) <= len(lcodes) or not build_on_smaller:
        left_idx, right_idx, _ = _expand(*_match_ranges(rcodes, lcodes))
    else:
        right_idx, left_idx, _ = _expand(*_match_ranges(lcodes, rcodes))
    return left_idx.astype(np.int32), right_idx.astype(np.int32)


def left_join(left_keys, right_keys):
    lcodes, rcodes, _ = factorize_keys(left_keys, right_keys)
    probe_idx, build_idx, counts = _expand(*_match_ranges(rcodes, lcodes))
    unmatched = np.flatnonzero(counts == 0)
    left_idx = np.concatenate([probe_idx, unmatched])
    right_idx = np.concatenate([build_idx, np.full(len(unmatched), -1, dtype=np.int64)])
    return left_idx.astype(np.int32), right_idx.astype(np.int32)


def semi_join(left_keys, right_keys):
    lcodes, rcodes, _ = factorize_keys(left_keys, right_keys)
    _, lo, hi = _match_ranges(rcodes, lcodes)
    return np.flatnonzero(hi > lo).astype(np.int32)


def anti_join(left_keys, right_keys):
    lcodes, rcodes, _ = factorize_keys(left_keys, right_keys)
    _, lo, hi = _match_ranges(rcodes, lcodes)
    return np.flatnonzero(hi == lo).astype(np.int32)


# -- group-by -----------------------------------------------------------------


def groupby(keys, aggs):
    """One ``(dtype, data, validity, dictionary)`` per key, then per agg."""
    codes, _, _ = factorize_keys(keys, nulls_match=True)
    uniq_codes, first_idx, gids = np.unique(codes, return_index=True, return_inverse=True)
    num_groups = len(uniq_codes)
    out = [
        (key.dtype, key.data[first_idx], key.valid_mask()[first_idx], key.dictionary)
        for key in keys
    ]
    return out + [_aggregate(agg, gids, num_groups) for agg in aggs]


def _aggregate(agg, gids, num_groups):
    all_valid = np.ones(num_groups, dtype=np.bool_)
    if agg.op == "count_star":
        counts = np.bincount(gids, minlength=num_groups).astype(np.int64)
        return INT64, counts, all_valid, None

    col = agg.column
    valid = col.valid_mask()
    if col.dtype.is_string:
        valid = valid & (col.data >= 0)

    if agg.op == "count":
        counts = np.bincount(gids[valid], minlength=num_groups).astype(np.int64)
        return INT64, counts, all_valid, None

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
        return INT64, counts, all_valid, None

    group_has_value = np.zeros(num_groups, dtype=np.bool_)
    np.logical_or.at(group_has_value, gids[valid], True)

    if agg.op in ("sum", "mean"):
        sums = np.bincount(
            gids[valid], weights=col.data[valid].astype(np.float64), minlength=num_groups
        )
        if agg.op == "mean":
            counts = np.bincount(gids[valid], minlength=num_groups)
            # The seed wrote ``out=np.zeros_like(sums)``, which raises on zero
            # rows (``bincount`` of nothing is int64); same values otherwise.
            out = np.divide(sums, counts, out=np.zeros(num_groups), where=counts > 0)
            return FLOAT64, out, group_has_value, None
        if col.dtype.is_integer:
            return INT64, np.round(sums).astype(np.int64), group_has_value, None
        return FLOAT64, sums, group_has_value, None

    reducer = np.minimum if agg.op == "min" else np.maximum
    vals = col.data[valid]
    sub_gids = gids[valid]
    out = np.zeros(num_groups, dtype=col.data.dtype)
    if len(vals):
        order = np.argsort(sub_gids, kind="stable")
        sorted_gids = sub_gids[order]
        sorted_vals = vals[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_gids)) + 1])
        out[sorted_gids[starts]] = reducer.reduceat(sorted_vals, starts)
    return col.dtype, out, group_has_value, col.dictionary


# -- string concatenation -----------------------------------------------------


def concat_string_columns(parts):
    """``(codes int32, validity, dictionary)`` of the concatenated column."""
    decoded = np.concatenate([p.decoded() for p in parts])
    mask = np.array([v is not None for v in decoded], dtype=np.bool_)
    uniques, inverse = (
        np.unique(decoded[mask].astype(object), return_inverse=True)
        if bool(mask.any())
        else (np.array([], dtype=object), np.array([], dtype=np.int64))
    )
    codes = np.full(len(decoded), -1, dtype=np.int32)
    codes[mask] = inverse.astype(np.int32)
    return codes, mask, uniques


# -- partition hash -----------------------------------------------------------


def _fnv1a(text):
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def hash_partition_ids(keys, num_partitions):
    """The unsalted (level 0) partition hash as first shipped: the raw
    payload of a non-string column is mixed in whatever its validity says,
    so this is the reference only for columns without NULLs (and for
    string columns, whose NULLs it already hashed as zero).  The salted
    levels as first shipped sent every row of a bucket to one bucket
    again, so they have no reference to agree with."""
    rows = len(keys[0])
    acc = np.zeros(rows, dtype=np.uint64)
    for col in keys:
        if col.dtype.is_string:
            hashes = np.array([_fnv1a(str(s)) for s in col.dictionary], dtype=np.uint64)
            vals = np.zeros(rows, dtype=np.uint64)
            valid = _column_mask(col)
            vals[valid] = hashes[col.data[valid]]
        else:
            vals = col.data.astype(np.int64).view(np.uint64)
        acc = acc * np.uint64(1099511628211) + vals
    return (acc % np.uint64(num_partitions)).astype(np.int32)


# -- row movement ---------------------------------------------------------------
#
# The copying kernels as first shipped.  Every column selects its rows on
# its own, through ``valid_mask()`` (an all-true array for a column with no
# validity buffer), and ``GColumn.from_array`` drops the mask again when it
# comes out all-true.  One fix is applied: a slice that starts past the
# last row ends at its start (the first version charged the negative
# difference as a row count).


def gather_column(column, indices, charge=True):
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


def gather_table(table, indices):
    cols = [gather_column(c, indices) for c in table.columns]
    return GTable(table.schema, cols, table.device)


def mask_table(table, keep):
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


def slice_table(table, start, length):
    device = table.device
    end = max(min(start + length, table.num_rows), start)
    cols = []
    for c in table.columns:
        data = c.data[start:end]
        validity = c.valid_mask()[start:end]
        cols.append(GColumn.from_array(device, c.dtype, data, validity, c.dictionary))
    device.launch(KernelClass.STREAM, 0, sum(c.nbytes for c in cols), end - start)
    return GTable(table.schema, cols, device)


class Pieces:
    """The buckets of ``scatter_to_partitions``, built when taken, one
    ``flatnonzero`` pass over the ids per bucket."""

    def __init__(self, table, part_ids, num_partitions):
        self._table = table
        self._ids = part_ids
        self._n = num_partitions

    def __len__(self):
        return self._n

    def __getitem__(self, p):
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


def scatter_to_partitions(table, part_ids, num_partitions):
    part_ids = np.asarray(part_ids)
    table.device.launch(
        KernelClass.SCATTER,
        table.traffic_bytes + part_ids.nbytes,
        table.traffic_bytes,
        table.num_rows,
    )
    return Pieces(table, part_ids, num_partitions)


def concat_gtables(tables):
    """String columns through :func:`concat_string_columns` (decode every
    row, ``np.unique`` the strings)."""
    tables = [t for t in tables if t is not None]
    device = tables[0].device
    schema = tables[0].schema
    total_rows = sum(t.num_rows for t in tables)
    total_bytes = sum(t.traffic_bytes for t in tables)
    device.launch(KernelClass.STREAM, total_bytes, total_bytes, total_rows)
    out_cols = []
    for i, field in enumerate(schema):
        parts = [t.columns[i] for t in tables]
        if field.dtype.is_string:
            codes, validity, dictionary = concat_string_columns(parts)
            out_cols.append(GColumn.from_array(device, field.dtype, codes, validity, dictionary))
        else:
            data = np.concatenate([p.data for p in parts])
            validity = np.concatenate([p.valid_mask() for p in parts])
            out_cols.append(GColumn.from_array(device, field.dtype, data, validity))
    return GTable(Schema([Field(f.name, f.dtype) for f in schema]), out_cols, device)


# -- sort ------------------------------------------------------------------------

# The sort order as first shipped: every key column's full validity mask
# (all-true when it has none) feeds an ``np.where`` and, when not all-true,
# a NULL-flag key.  Returns the permutation only; ``sorted_order`` charges.


def stable_order(keys, ascending):
    lex_keys = []
    for col, asc in reversed(list(zip(keys, ascending))):
        valid = col.valid_mask()
        if col.dtype.is_string:
            valid = valid & (col.data >= 0)
        if col.data.dtype.kind == "f":
            data = col.data if asc else -col.data
            lex_keys.append(np.where(valid, data, np.inf))
            continue
        data = col.data.astype(np.int64, copy=False)
        lex_keys.append(np.where(valid, data if asc else ~data, 0))
        if not bool(valid.all()):
            lex_keys.append(~valid)
    return np.lexsort(lex_keys).astype(np.int32)


# -- expression kernels -----------------------------------------------------------
#
# The compute kernels as first shipped.  Every operand becomes a full value
# array and a full validity mask — all-true for a column without a validity
# buffer and for a non-NULL scalar — and ``GColumn.from_array`` drops the
# mask again when it comes out all-true.  Two fixes are applied: ``%``
# takes the dividend's sign and is NULL for a zero divisor (the first
# version floored, and cast the NaN of ``x % 0`` to int64's minimum), and a
# NULL in an IN list makes the rows that match no element NULL (the first
# version left them FALSE).

_ARITH_OPS = {
    "add": np.add,
    "subtract": np.subtract,
    "multiply": np.multiply,
    "divide": np.divide,
    "modulo": np.fmod,
}
_CMP_OPS = {
    "eq": np.equal,
    "ne": np.not_equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}


def _values_and_mask(operand, rows):
    if isinstance(operand, GColumn):
        return operand.data, operand.valid_mask()
    raw = date_to_days(operand) if isinstance(operand, date) else operand
    if raw is None:
        return np.zeros(rows), np.zeros(rows, dtype=np.bool_)
    return np.full(rows, raw), np.ones(rows, dtype=np.bool_)


def binary_arith(op, left, right):
    device = _device_of(left, right)
    rows = _rows_of(left, right)
    lv, lm = _values_and_mask(left, rows)
    rv, rm = _values_and_mask(right, rows)
    ldt, rdt = _dtype_of(left), _dtype_of(right)
    if op == "divide":
        out_dtype = FLOAT64
        with np.errstate(divide="ignore", invalid="ignore"):
            data = np.divide(lv.astype(np.float64), rv.astype(np.float64))
        valid = lm & rm & (np.asarray(rv) != 0)
        data = np.where(valid, data, 0.0)
    else:
        if ldt is DATE32 and rdt.is_integer and op in ("add", "subtract"):
            out_dtype = DATE32
        elif ldt is DATE32 and rdt is DATE32 and op == "subtract":
            out_dtype = INT64
        else:
            out_dtype = common_numeric_type(ldt, rdt)
        with np.errstate(divide="ignore", invalid="ignore"):
            data = _ARITH_OPS[op](lv.astype(np.float64), rv.astype(np.float64))
        valid = lm & rm
        if op == "modulo":
            valid = valid & (rv != 0)
        data = np.where(valid, data, 0.0).astype(out_dtype.numpy_dtype)
    device.launch(KernelClass.STREAM, _traffic(left, right), data.nbytes, rows)
    return GColumn.from_array(device, out_dtype, data, valid)


def compare(op, left, right):
    """Non-string operands only."""
    device = _device_of(left, right)
    rows = _rows_of(left, right)
    lv, lm = _values_and_mask(left, rows)
    rv, rm = _values_and_mask(right, rows)
    valid = lm & rm
    data = _CMP_OPS[op](lv, rv) & valid
    device.launch(KernelClass.STREAM, _traffic(left, right), rows, rows)
    return GColumn.from_array(device, BOOL, data, valid)


def _bool_parts(operand, rows):
    if isinstance(operand, GColumn):
        return operand.data.astype(np.bool_), operand.valid_mask()
    if operand is None:
        return np.zeros(rows, dtype=np.bool_), np.zeros(rows, dtype=np.bool_)
    return np.full(rows, bool(operand)), np.ones(rows, dtype=np.bool_)


def logical_and(left, right):
    device = _device_of(left, right)
    rows = _rows_of(left, right)
    lv, lm = _bool_parts(left, rows)
    rv, rm = _bool_parts(right, rows)
    data = lv & rv
    valid = (lm & rm) | (lm & ~lv) | (rm & ~rv)
    device.launch(KernelClass.STREAM, _traffic(left, right), rows, rows)
    return GColumn.from_array(device, BOOL, data & valid, valid)


def logical_or(left, right):
    device = _device_of(left, right)
    rows = _rows_of(left, right)
    lv, lm = _bool_parts(left, rows)
    rv, rm = _bool_parts(right, rows)
    true_l = lm & lv
    true_r = rm & rv
    valid = (lm & rm) | true_l | true_r
    device.launch(KernelClass.STREAM, _traffic(left, right), rows, rows)
    return GColumn.from_array(device, BOOL, true_l | true_r, valid)


def logical_not(operand):
    device = operand.device
    rows = len(operand)
    v, m = _bool_parts(operand, rows)
    device.launch(KernelClass.STREAM, operand.traffic_bytes, rows, rows)
    return GColumn.from_array(device, BOOL, ~v & m, m)


def is_null(operand, negate=False):
    device = operand.device
    rows = len(operand)
    mask = operand.valid_mask()
    if operand.dtype.is_string:
        mask = mask & (operand.data >= 0)
    data = mask if negate else ~mask
    device.launch(KernelClass.STREAM, rows, rows, rows)
    return GColumn.from_array(device, BOOL, data, np.ones(rows, dtype=np.bool_))


def in_list(column, values):
    device = column.device
    rows = len(column)
    listed = [v for v in values if v is not None]
    if column.dtype.is_string:
        targets = {str(v) for v in listed}
        hits = np.array([str(s) in targets for s in column.dictionary], dtype=np.bool_)
        valid = column.valid_mask() & (column.data >= 0)
        data = np.zeros(rows, dtype=np.bool_)
        data[valid] = hits[column.data[valid]]
        device.launch(KernelClass.STRING, column.traffic_bytes, rows, rows)
    else:
        raw = np.array([date_to_days(v) if isinstance(v, date) else v for v in listed])
        valid = column.valid_mask()
        data = np.isin(column.data, raw) & valid
        device.launch(KernelClass.STREAM, column.traffic_bytes, rows, rows)
    if len(listed) < len(values):
        valid = valid & data
    return GColumn.from_array(device, BOOL, data, valid)


def keep_mask(value, table):
    if not isinstance(value, GColumn):
        return np.full(table.num_rows, bool(value), dtype=np.bool_)
    return value.data.astype(np.bool_) & value.valid_mask()
