"""Elementwise expression kernels: arithmetic, comparison, logic, strings.

The engine's expression evaluator lowers each expression node onto one of
these kernels.  Conventions:

* operands are :class:`GColumn` or Python scalars (at least one column);
  a column without a validity buffer, or a non-NULL scalar, carries no
  mask at all (``None``), masks combine through :func:`_and_valid`, and
  NULL handling runs only where a NULL can be;
* NULL propagates through arithmetic and comparisons; ``/`` and ``%`` by
  zero are NULL, and ``%`` takes the dividend's sign;
* AND/OR use Kleene three-valued logic (``FALSE AND NULL = FALSE``);
* ``IN`` with a NULL in its list is NULL, not FALSE, where nothing matches;
* string predicates are evaluated once per *dictionary entry* and mapped
  through the codes — the payoff of dictionary encoding — but are charged
  as full character-stream kernels, which is what libcudf (no dictionary
  by default) pays and what makes Q13's low-selectivity NOT LIKE expensive
  in the paper.  LIKE's per-entry hits, SUBSTRING's mapped dictionary and
  the partition hash's entry hashes are computed once per dictionary
  object and remembered for as long as it lives.
"""

from __future__ import annotations

import re
from datetime import date
from typing import Any, Sequence

import numpy as np

from ..columnar import BOOL, DATE32, FLOAT64, INT64, STRING, DType
from ..columnar.dtypes import common_numeric_type, date_to_days
from ..gpu.costmodel import KernelClass
from .gtable import GColumn, _has_value, _per_dictionary

__all__ = [
    "binary_arith",
    "compare",
    "logical_and",
    "logical_or",
    "logical_not",
    "is_null",
    "in_list",
    "case_when",
    "coalesce",
    "extract_date_part",
    "like",
    "contains",
    "substring",
    "string_case",
    "string_length",
    "concat_strings",
    "absolute",
    "round_column",
    "cast_column",
    "fill_constant",
    "hash_partition_ids",
]

_ARITH_OPS = {
    "add": np.add,
    "subtract": np.subtract,
    "multiply": np.multiply,
    "divide": np.divide,
    "modulo": np.fmod,  # SQL's remainder takes the dividend's sign
}

_CMP_OPS = {
    "eq": np.equal,
    "ne": np.not_equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}


def _device_of(*operands):
    for op in operands:
        if isinstance(op, GColumn):
            return op.device
    raise TypeError("at least one operand must be a GColumn")


def _rows_of(*operands) -> int:
    for op in operands:
        if isinstance(op, GColumn):
            return len(op)
    raise TypeError("at least one operand must be a GColumn")


def _traffic(*operands) -> int:
    return sum(op.traffic_bytes for op in operands if isinstance(op, GColumn))


def _scalar_to_raw(value: Any) -> Any:
    """Convert a Python scalar to its physical representation."""
    if isinstance(value, date):
        return date_to_days(value)
    return value


def _validity(column: GColumn) -> np.ndarray | None:
    return None if column.validity is None else column.validity.array


def _and_valid(*masks: np.ndarray | None) -> np.ndarray | None:
    """The AND of boolean masks, ``None`` standing for all-true (and
    returned when every mask is ``None``): how validity masks combine, and
    how data is cleared under NULL rows."""
    out = None
    for mask in masks:
        if mask is not None:
            out = mask if out is None else out & mask
    return out


def _scrub(data: np.ndarray, valid: np.ndarray | None, zero=0) -> np.ndarray:
    """``data`` with ``zero`` under its NULL rows."""
    return data if valid is None else np.where(valid, data, zero)


def _values_and_mask(operand, rows: int):
    """Physical values and validity mask of a column or broadcast scalar.
    The mask is ``None`` when every row is valid; a non-NULL scalar's values
    are the 0-d ``np.asarray(raw)``, which promotes as a full array would."""
    if isinstance(operand, GColumn):
        return operand.data, _validity(operand)
    raw = _scalar_to_raw(operand)
    if raw is None:
        return np.zeros(rows), np.zeros(rows, dtype=np.bool_)
    return np.asarray(raw), None


def _dtype_of(operand) -> DType:
    if isinstance(operand, GColumn):
        return operand.dtype
    raw = _scalar_to_raw(operand)
    if raw is None:
        return INT64  # typed NULL default, matching Literal(None)
    if isinstance(raw, bool):
        return BOOL
    if isinstance(raw, int):
        return INT64
    if isinstance(raw, float):
        return FLOAT64
    if isinstance(raw, str):
        return STRING
    raise TypeError(f"unsupported scalar {operand!r}")


def binary_arith(op: str, left, right) -> GColumn:
    """Arithmetic between columns/scalars.  Division always yields float64
    (SQL decimal semantics in this reproduction); date +/- integer yields
    date32; date - date yields int64 days.  ``modulo`` is SQL's remainder:
    it takes the dividend's sign.  A zero divisor makes ``divide`` and
    ``modulo`` NULL."""
    if op not in _ARITH_OPS:
        raise ValueError(f"unknown arithmetic op {op!r}")
    device = _device_of(left, right)
    rows = _rows_of(left, right)
    lv, lm = _values_and_mask(left, rows)
    rv, rm = _values_and_mask(right, rows)
    ldt, rdt = _dtype_of(left), _dtype_of(right)

    if op == "divide":
        out_dtype = FLOAT64
    elif ldt is DATE32 and rdt.is_integer and op in ("add", "subtract"):
        out_dtype = DATE32
    elif ldt is DATE32 and rdt is DATE32 and op == "subtract":
        out_dtype = INT64
    else:
        out_dtype = common_numeric_type(ldt, rdt)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = _ARITH_OPS[op](lv.astype(np.float64), rv.astype(np.float64))
    valid = _and_valid(lm, rm)
    if op in ("divide", "modulo"):
        nonzero = rv != 0
        if nonzero.ndim == 0:  # a scalar divisor
            nonzero = None if nonzero else np.zeros(rows, dtype=np.bool_)
        valid = _and_valid(valid, nonzero)
    # Canonicalise NULL slots to zero before the cast: garbage inputs
    # (NaN under an invalid slot) would otherwise survive as undefined
    # payload bytes in the output.
    data = _scrub(data, valid, 0.0).astype(out_dtype.numpy_dtype, copy=False)

    device.launch(KernelClass.STREAM, _traffic(left, right), data.nbytes, rows)
    return GColumn.from_array(device, out_dtype, data, valid)


def compare(op: str, left, right) -> GColumn:
    """Comparison producing a nullable boolean column."""
    if op not in _CMP_OPS:
        raise ValueError(f"unknown comparison {op!r}")
    device = _device_of(left, right)
    rows = _rows_of(left, right)
    ldt, rdt = _dtype_of(left), _dtype_of(right)

    if ldt.is_string or rdt.is_string:
        data, valid = _compare_strings(op, left, right, rows)
        device.launch(KernelClass.STRING, _traffic(left, right), rows, rows)
    else:
        lv, lm = _values_and_mask(left, rows)
        rv, rm = _values_and_mask(right, rows)
        valid = _and_valid(lm, rm)
        # Scrub payloads under NULL slots: comparing garbage (e.g. NaN
        # left behind by an outer-join gather) can yield True with
        # valid=False, which astype(bool) consumers would surface.
        data = _and_valid(_CMP_OPS[op](lv, rv), valid)
        device.launch(KernelClass.STREAM, _traffic(left, right), rows, rows)
    return GColumn.from_array(device, BOOL, data, valid)


def _compare_strings(op: str, left, right, rows: int):
    if left is None or right is None:
        # NULL comparand: the result is NULL on every row.
        return np.zeros(rows, dtype=np.bool_), np.zeros(rows, dtype=np.bool_)
    if isinstance(left, GColumn) and isinstance(right, GColumn):
        lvals, rvals = left.decoded(), right.decoded()
        valid = _has_value(left) & _has_value(right)
        data = np.zeros(rows, dtype=np.bool_)
        idx = np.flatnonzero(valid)
        data[idx] = [_py_cmp(op, lvals[i], rvals[i]) for i in idx]
        return data, valid
    col, scalar, flipped = (
        (left, right, False) if isinstance(left, GColumn) else (right, left, True)
    )
    # Evaluate the predicate once per dictionary entry, map through codes.
    dictionary = col.dictionary if col.dictionary is not None else np.array([], object)
    effective_op = _flip(op) if flipped else op
    hits = np.array(
        [_py_cmp(effective_op, str(s), scalar) for s in dictionary], dtype=np.bool_
    )
    valid = _has_value(col)
    data = np.zeros(rows, dtype=np.bool_)
    data[valid] = hits[col.data[valid]]
    return data, valid


def _py_cmp(op: str, a: str, b: str) -> bool:
    if op == "eq":
        return a == b
    if op == "ne":
        return a != b
    if op == "lt":
        return a < b
    if op == "le":
        return a <= b
    if op == "gt":
        return a > b
    return a >= b


def _flip(op: str) -> str:
    return {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}.get(op, op)


def _bool_parts(operand, rows: int):
    """(value, valid) of a boolean column/scalar under 3VL; ``valid`` is
    ``None`` when every row is valid, and a non-NULL scalar's value is 0-d."""
    if isinstance(operand, GColumn):
        if not operand.dtype.is_boolean:
            raise TypeError("logical ops need boolean operands")
        return operand.data.astype(np.bool_, copy=False), _validity(operand)
    if operand is None:
        return np.zeros(rows, dtype=np.bool_), np.zeros(rows, dtype=np.bool_)
    return np.asarray(bool(operand)), None


def logical_and(left, right) -> GColumn:
    """Kleene AND: FALSE dominates NULL."""
    device = _device_of(left, right)
    rows = _rows_of(left, right)
    lv, lm = _bool_parts(left, rows)
    rv, rm = _bool_parts(right, rows)
    data = lv & rv
    valid = _and_valid(lm, rm)
    if valid is not None:  # a valid FALSE decides the row whatever the other side is
        valid = valid | _and_valid(lm, ~lv) | _and_valid(rm, ~rv)
        data &= valid
    device.launch(KernelClass.STREAM, _traffic(left, right), rows, rows)
    return GColumn.from_array(device, BOOL, data, valid)


def logical_or(left, right) -> GColumn:
    """Kleene OR: TRUE dominates NULL."""
    device = _device_of(left, right)
    rows = _rows_of(left, right)
    lv, lm = _bool_parts(left, rows)
    rv, rm = _bool_parts(right, rows)
    true_l, true_r = _and_valid(lm, lv), _and_valid(rm, rv)
    data = true_l | true_r
    valid = _and_valid(lm, rm)
    if valid is not None:  # a valid TRUE decides the row whatever the other side is
        valid = valid | true_l | true_r
    device.launch(KernelClass.STREAM, _traffic(left, right), rows, rows)
    return GColumn.from_array(device, BOOL, data, valid)


def logical_not(operand: GColumn) -> GColumn:
    device = operand.device
    rows = len(operand)
    v, m = _bool_parts(operand, rows)
    device.launch(KernelClass.STREAM, operand.traffic_bytes, rows, rows)
    return GColumn.from_array(device, BOOL, _and_valid(~v, m), m)


def is_null(operand: GColumn, negate: bool = False) -> GColumn:
    device = operand.device
    rows = len(operand)
    present = _has_value(operand) if operand.dtype.is_string else _validity(operand)
    if present is None:
        present = np.ones(rows, dtype=np.bool_)
    data = present if negate else ~present
    device.launch(KernelClass.STREAM, rows, rows, rows)
    return GColumn.from_array(device, BOOL, data)


def in_list(column: GColumn, values: Sequence[Any]) -> GColumn:
    """SQL ``IN (literal, ...)``.  With a NULL in the list, a row that
    matches no element is NULL, not FALSE."""
    device = column.device
    rows = len(column)
    listed = [v for v in values if v is not None]
    if column.dtype.is_string:
        targets = {str(v) for v in listed}
        dictionary = column.dictionary if column.dictionary is not None else np.array([], object)
        hits = np.array([str(s) in targets for s in dictionary], dtype=np.bool_)
        valid = _has_value(column)
        data = np.zeros(rows, dtype=np.bool_)
        data[valid] = hits[column.data[valid]]
        device.launch(KernelClass.STRING, column.traffic_bytes, rows, rows)
    else:
        raw = np.array([_scalar_to_raw(v) for v in listed])
        valid = _validity(column)
        data = _and_valid(np.isin(column.data, raw), valid)  # scrub NULL-slot payloads
        device.launch(KernelClass.STREAM, column.traffic_bytes, rows, rows)
    if len(listed) < len(values):
        valid = _and_valid(valid, data)
    return GColumn.from_array(device, BOOL, data, valid)


def case_when(conditions: Sequence[GColumn], results: Sequence, default) -> GColumn:
    """CASE WHEN c1 THEN r1 ... ELSE default END.

    Conditions are boolean columns (NULL condition = no match); results and
    default are columns or scalars of a common type.
    """
    if len(conditions) != len(results):
        raise ValueError("one result per condition required")
    device = _device_of(*conditions)
    rows = _rows_of(*conditions)
    out_dtype = _result_dtype(list(results) + [default])
    if out_dtype.is_string:
        return _case_when_strings(device, rows, conditions, results, default)
    data = np.zeros(rows, dtype=out_dtype.numpy_dtype)
    dv, valid = _values_and_mask(default, rows)
    data[:] = dv.astype(out_dtype.numpy_dtype)
    decided = np.zeros(rows, dtype=np.bool_)
    for cond, result in zip(conditions, results):
        fire = _and_valid(cond.data.astype(np.bool_), _validity(cond), ~decided)
        rv, rm = _values_and_mask(result, rows)
        rv = rv.astype(out_dtype.numpy_dtype)
        data[fire] = rv[fire] if rv.ndim else rv
        if valid is not None or rm is not None:
            # The row takes the firing result's validity (None: valid).
            valid = np.where(fire, True if rm is None else rm, True if valid is None else valid)
        decided |= fire
    data = _scrub(data, valid).astype(out_dtype.numpy_dtype, copy=False)  # scrub NULL slots
    device.launch(
        KernelClass.STREAM, _traffic(*conditions) + rows * out_dtype.itemsize, rows, rows
    )
    return GColumn.from_array(device, out_dtype, data, valid)


def _case_when_strings(device, rows, conditions, results, default) -> GColumn:
    out = np.empty(rows, dtype=object)
    out[:] = default if isinstance(default, (str, type(None))) else None
    if isinstance(default, GColumn):
        out[:] = default.decoded()
    decided = np.zeros(rows, dtype=np.bool_)
    for cond, result in zip(conditions, results):
        fire = _and_valid(cond.data.astype(np.bool_), _validity(cond), ~decided)
        if isinstance(result, GColumn):
            decoded = result.decoded()
            out[fire] = decoded[fire]
        else:
            out[fire] = result
        decided |= fire
    device.launch(KernelClass.STRING, rows * 16, rows * 16, rows)
    return _encode_strings(device, out)


def coalesce(operands: Sequence) -> GColumn:
    """First non-NULL value across operands."""
    device = _device_of(*[o for o in operands if isinstance(o, GColumn)])
    rows = _rows_of(*[o for o in operands if isinstance(o, GColumn)])
    out_dtype = _result_dtype(list(operands))
    if out_dtype.is_string:
        # Codes from different dictionaries don't compose; merge decoded.
        out = np.full(rows, None, dtype=object)
        for op in operands:
            if isinstance(op, GColumn):
                decoded = op.decoded()
                fill = np.array([v is None for v in out]) & np.array(
                    [v is not None for v in decoded]
                )
                out[fill] = decoded[fill]
            elif op is not None:
                out[np.array([v is None for v in out])] = str(op)
        device.launch(KernelClass.STRING, _traffic(*operands), rows, rows)
        return _encode_strings(device, out)
    data = np.zeros(rows, dtype=out_dtype.numpy_dtype)
    valid = np.zeros(rows, dtype=np.bool_)
    for op in operands:
        v, m = _values_and_mask(op, rows)
        fill = _and_valid(m, ~valid)
        v = v.astype(out_dtype.numpy_dtype)
        data[fill] = v[fill] if v.ndim else v
        if m is None:  # every row is filled now
            valid = None
            break
        valid |= m
    device.launch(KernelClass.STREAM, _traffic(*operands), rows, rows)
    return GColumn.from_array(device, out_dtype, data, valid)


def _result_dtype(operands: Sequence) -> DType:
    for op in operands:
        if isinstance(op, GColumn):
            return op.dtype
    for op in operands:
        if op is not None:
            return _dtype_of(op)
    return INT64  # all-NULL: typed NULL default, matching Literal(None)


def extract_date_part(part: str, column: GColumn) -> GColumn:
    """EXTRACT(YEAR|MONTH|DAY FROM date_column) -> int64."""
    if column.dtype is not DATE32:
        raise TypeError("extract requires a date32 column")
    device = column.device
    rows = len(column)
    days = column.data.astype("datetime64[D]")
    if part == "year":
        out = days.astype("datetime64[Y]").astype(np.int64) + 1970
    elif part == "month":
        months = days.astype("datetime64[M]").astype(np.int64)
        out = months % 12 + 1
    elif part == "day":
        months = days.astype("datetime64[M]")
        out = (days - months.astype("datetime64[D]")).astype(np.int64) + 1
    else:
        raise ValueError(f"unsupported date part {part!r}")
    valid = _validity(column)
    out = _scrub(out, valid)  # scrub NULL-slot payloads
    device.launch(KernelClass.STREAM, column.nbytes, rows * 8, rows)
    return GColumn.from_array(device, INT64, out, valid)


def _like_to_regex(pattern: str, escape: str | None = None) -> re.Pattern:
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if escape is not None and ch == escape and i + 1 < len(pattern):
            # ESCAPE'd character matches literally, including % and _.
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _like_hits(dictionary: np.ndarray, pattern: str, escape: str | None) -> np.ndarray:
    """Whether each dictionary entry matches the LIKE ``pattern``."""
    regex = _like_to_regex(pattern, escape)
    return np.array([regex.match(str(s)) is not None for s in dictionary], dtype=np.bool_)


def like(
    column: GColumn, pattern: str, negate: bool = False, escape: str | None = None
) -> GColumn:
    """SQL LIKE on a string column (dictionary-evaluated, char-charged)."""
    if not column.dtype.is_string:
        raise TypeError("LIKE requires a string column")
    device = column.device
    rows = len(column)
    dictionary = column.dictionary if column.dictionary is not None else np.array([], object)
    hits = _per_dictionary(dictionary, _like_hits, pattern, escape)
    if negate:
        hits = ~hits
    valid = _has_value(column)
    data = np.zeros(rows, dtype=np.bool_)
    data[valid] = hits[column.data[valid]]
    device.launch(KernelClass.STRING, column.traffic_bytes, rows, rows)
    return GColumn.from_array(device, BOOL, data, valid)


def contains(column: GColumn, needle: str, negate: bool = False) -> GColumn:
    """Substring containment (LIKE '%needle%' fast path)."""
    return like(column, f"%{needle}%", negate)


def substring(column: GColumn, start: int, length: int) -> GColumn:
    """1-based SQL SUBSTRING over a string column."""
    if not column.dtype.is_string:
        raise TypeError("substring requires a string column")
    device = column.device
    dictionary = column.dictionary if column.dictionary is not None else np.array([], object)
    uniques, remap = _per_dictionary(dictionary, _substring_entries, start, length)
    device.launch(KernelClass.STRING, column.traffic_bytes, column.traffic_bytes, len(column))
    valid = _has_value(column)
    codes = np.full(len(column), -1, dtype=np.int32)
    codes[valid] = remap[column.data[valid]]
    return GColumn.from_array(device, STRING, codes, valid, uniques)


def _substring_entries(
    dictionary: np.ndarray, start: int, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct substrings of the entries, and each entry's
    code among them (int32)."""
    mapped = np.array([str(s)[start - 1 : start - 1 + length] for s in dictionary], dtype=object)
    # Re-encode: mapped dictionary may contain duplicates and lose order.
    if not len(mapped):
        return np.array([], object), np.array([], np.int32)
    uniques, remap = np.unique(mapped, return_inverse=True)
    return uniques, remap.astype(np.int32)


def string_case(column: GColumn, upper: bool) -> GColumn:
    """UPPER/LOWER over a string column (dictionary-mapped, re-encoded)."""
    if not column.dtype.is_string:
        raise TypeError("upper/lower require a string column")
    device = column.device
    rows = len(column)
    dictionary = column.dictionary if column.dictionary is not None else np.array([], object)
    mapped = np.array(
        [str(s).upper() if upper else str(s).lower() for s in dictionary], dtype=object
    )
    device.launch(KernelClass.STRING, column.traffic_bytes, column.traffic_bytes, rows)
    # Case folding can merge dictionary entries; re-encode.
    uniques, remap = (
        np.unique(mapped, return_inverse=True)
        if len(mapped)
        else (np.array([], object), np.array([], np.int64))
    )
    valid = _has_value(column)
    codes = np.full(rows, -1, dtype=np.int32)
    codes[valid] = remap[column.data[valid]].astype(np.int32)
    return GColumn.from_array(device, STRING, codes, valid, uniques)


def string_length(column: GColumn) -> GColumn:
    """LENGTH of a string column -> int64 (dictionary-mapped)."""
    if not column.dtype.is_string:
        raise TypeError("length requires a string column")
    device = column.device
    rows = len(column)
    dictionary = column.dictionary if column.dictionary is not None else np.array([], object)
    lengths = np.array([len(str(s)) for s in dictionary], dtype=np.int64)
    valid = _has_value(column)
    out = np.zeros(rows, dtype=np.int64)
    out[valid] = lengths[column.data[valid]]
    device.launch(KernelClass.STRING, column.traffic_bytes, rows * 8, rows)
    return GColumn.from_array(device, INT64, out, valid)


def concat_strings(operands: Sequence) -> GColumn:
    """Row-wise string concatenation; NULL if any operand is NULL."""
    device = _device_of(*[o for o in operands if isinstance(o, GColumn)])
    rows = _rows_of(*[o for o in operands if isinstance(o, GColumn)])
    parts = []
    for op in operands:
        if isinstance(op, GColumn):
            if not op.dtype.is_string:
                raise TypeError("concat requires string operands")
            parts.append(op.decoded())
        elif op is None:
            parts.append(np.full(rows, None, dtype=object))
        else:
            parts.append(np.full(rows, str(op), dtype=object))
    out = np.empty(rows, dtype=object)
    for i in range(rows):
        vals = [p[i] for p in parts]
        out[i] = None if any(v is None for v in vals) else "".join(str(v) for v in vals)
    device.launch(KernelClass.STRING, _traffic(*operands), rows * 16, rows)
    return _encode_strings(device, out)


def absolute(column: GColumn) -> GColumn:
    """ABS over a numeric column."""
    if not column.dtype.is_numeric:
        raise TypeError("abs requires a numeric column")
    device = column.device
    rows = len(column)
    valid = _validity(column)
    data = _scrub(np.abs(column.data), valid).astype(column.dtype.numpy_dtype, copy=False)
    device.launch(KernelClass.STREAM, column.nbytes, data.nbytes, rows)
    return GColumn.from_array(device, column.dtype, data, valid)


def round_column(column: GColumn, digits: int = 0) -> GColumn:
    """ROUND to ``digits`` decimal places -> float64."""
    if not column.dtype.is_numeric:
        raise TypeError("round requires a numeric column")
    device = column.device
    rows = len(column)
    valid = _validity(column)
    data = _scrub(np.round(column.data.astype(np.float64), digits), valid, 0.0)
    device.launch(KernelClass.STREAM, column.nbytes, rows * 8, rows)
    return GColumn.from_array(device, FLOAT64, data, valid)


def cast_column(column: GColumn, target: DType) -> GColumn:
    """Cast between logical types (numeric widening/narrowing, date<->int)."""
    device = column.device
    if target is column.dtype:
        return column
    if column.dtype.is_string or target.is_string:
        host = column.to_host(charge_transfer=False).cast(target)
        device.launch(KernelClass.STRING, column.traffic_bytes, host.nbytes, len(column))
        return GColumn.from_array(device, target, host.data, host.is_valid_mask(), host.dictionary)
    valid = _validity(column)
    # Scrub before the cast: casting garbage payloads (NaN -> int) is
    # undefined and would leave non-canonical bytes under NULL slots.
    data = _scrub(column.data, valid).astype(target.numpy_dtype)
    device.launch(KernelClass.STREAM, column.nbytes, data.nbytes, len(column))
    return GColumn.from_array(device, target, data, valid)


def fill_constant(device, rows: int, value: Any, dtype: DType | None = None) -> GColumn:
    """Materialise a broadcast scalar as a device column (None -> all-NULL)."""
    dtype = dtype if dtype is not None else _dtype_of(value)
    if value is None:
        if dtype.is_string:
            codes = np.full(rows, -1, dtype=np.int32)
            return GColumn.from_array(
                device, STRING, codes, np.zeros(rows, dtype=np.bool_), np.array([], object)
            )
        data = np.zeros(rows, dtype=dtype.numpy_dtype)
        device.launch(KernelClass.STREAM, 0, data.nbytes, rows)
        return GColumn.from_array(device, dtype, data, np.zeros(rows, dtype=np.bool_))
    if dtype.is_string:
        codes = np.zeros(rows, dtype=np.int32)
        return GColumn.from_array(device, STRING, codes, None, np.array([str(value)], object))
    raw = _scalar_to_raw(value)
    data = np.full(rows, raw, dtype=dtype.numpy_dtype)
    device.launch(KernelClass.STREAM, 0, data.nbytes, rows)
    return GColumn.from_array(device, dtype, data)


def hash_partition_ids(
    keys: Sequence[GColumn], num_partitions: int, level: int = 0
) -> np.ndarray:
    """Deterministic partition id per row from the key columns.

    Rows whose keys are equal receive the same id, and NULL is one key
    value for every dtype: whatever payload lies under an invalid slot is
    hashed as zero.  This is the hash of out-of-core radix partitioning
    (:func:`~repro.kernels.copying.partition_by_keys`).  The distributed
    shuffle routes with ``distributed/engine._partition_ids`` instead:
    the same mix at level 0, except that a single integer key goes by
    plain modulo to match base-table placement — the two differ on
    negative single-integer keys when the node count is not a power of
    two, and a property test pins where they agree.

    ``level`` salts the accumulator so recursive radix partitioning
    redistributes at depth ``L+1`` the rows that landed in one bucket at
    depth ``L``.  ``level=0`` is the unsalted hash.  The mix is linear
    modulo 2**64, so a salt alone would only renumber the buckets (rows
    that agreed at one level would agree at every level); salted levels
    therefore pass the accumulator through a splitmix64 finaliser.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    if level < 0:
        raise ValueError("level must be non-negative")
    rows = _rows_of(*keys)
    salt = (level * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    acc = np.full(rows, np.uint64(salt), dtype=np.uint64)
    for col in keys:
        if col.dtype.is_string:
            # Hash each dictionary entry once with a process-stable FNV-1a,
            # then map through the codes.
            dictionary = col.dictionary if col.dictionary is not None else np.array([], object)
            dict_hashes = _per_dictionary(dictionary, _fnv1a_entries)
            vals = np.zeros(rows, dtype=np.uint64)
            valid = _has_value(col)
            vals[valid] = dict_hashes[col.data[valid]]
        else:
            vals = col.data.astype(np.int64).view(np.uint64) if col.data.dtype != np.uint64 else col.data
            vals = vals.astype(np.uint64)
            if col.validity is not None:
                vals[~col.validity.array] = 0
        acc = acc * np.uint64(1099511628211) + vals  # FNV-ish mix
    if level:
        acc ^= acc >> np.uint64(30)
        acc *= np.uint64(0xBF58476D1CE4E5B9)
        acc ^= acc >> np.uint64(27)
        acc *= np.uint64(0x94D049BB133111EB)
        acc ^= acc >> np.uint64(31)
    keys[0].device.launch(KernelClass.STREAM, _traffic(*keys), rows * 4, rows)
    return (acc % np.uint64(num_partitions)).astype(np.int32)


def _fnv1a(text: str) -> int:
    """Process-stable 64-bit FNV-1a (Python's hash() is salted per run)."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def _fnv1a_entries(dictionary: np.ndarray) -> np.ndarray:
    """:func:`_fnv1a` of every dictionary entry."""
    return np.array([_fnv1a(str(s)) for s in dictionary], dtype=np.uint64)


def _encode_strings(device, values: np.ndarray) -> GColumn:
    mask = np.array([v is not None for v in values], dtype=np.bool_)
    present = values[mask].astype(object) if bool(mask.any()) else np.array([], object)
    uniques, inverse = (
        np.unique(present, return_inverse=True)
        if len(present)
        else (np.array([], object), np.array([], np.int64))
    )
    codes = np.full(len(values), -1, dtype=np.int32)
    codes[mask] = inverse.astype(np.int32)
    return GColumn.from_array(device, STRING, codes, mask, uniques)
