"""Lowering of plan expressions onto device kernels.

This module is the engine's only expression evaluator.
:func:`compile_expression` turns a plan :class:`~repro.plan.Expression`
into a closure over ``(table, cache)``: the per-function dispatch is
resolved and all constant option parsing (LIKE patterns, cast targets,
substring offsets) is hoisted at compile time, so the closure performs
only the per-chunk kernel calls.  Literals evaluate to Python scalars;
the parent kernel broadcasts them, so constants never materialise columns
unless an expression is a bare literal.  Every expression of a plan is
compiled once, by ``compile_plan``, as it builds the operator that runs
it: compiled stages (:mod:`repro.core.operators.fused`), a probe's
residual filter and an aggregate's measure arguments.  An expression
that cannot be lowered fails ``compile_plan`` before anything launches.

Common-subexpression elimination: with a ``cache`` dict, every call node
is keyed by the stable digest of its ``to_dict()`` form and memoised, so
a subtree repeated within one stage evaluates once; regions pass a
cache under fused billing only.  A cache is only valid for one *table
epoch* — the caller must supply a fresh dict whenever the chunk object
changes (after a compaction or projection), because cached ``GColumn``
results are positional.  With ``cache=None`` nothing is shared: a
repeated subtree launches, and is charged for, its kernels every time it
occurs, which is what per-part billing prices (and the digest is never
computed).
"""

from __future__ import annotations

import json
import operator
from typing import Any, Callable

import numpy as np

from ..columnar.dtypes import DType, dtype_from_name
from ..kernels import (
    GColumn,
    GTable,
    absolute,
    binary_arith,
    case_when,
    cast_column,
    coalesce,
    compare,
    concat_strings,
    contains,
    extract_date_part,
    fill_constant,
    in_list,
    is_null,
    like,
    logical_and,
    logical_not,
    logical_or,
    round_column,
    string_case,
    string_length,
    substring,
)
from ..plan import Expression, FieldRef, Literal, ScalarCall

__all__ = [
    "CompiledFn",
    "UnsupportedExpressionError",
    "compile_expression",
    "compile_predicate",
    "compile_projection",
    "expression_digest",
]


class UnsupportedExpressionError(NotImplementedError):
    """An expression Sirius cannot run on the GPU (triggers CPU fallback)."""


# A compiled node: (table, cache) -> GColumn | scalar.
CompiledFn = Callable[[GTable, "dict | None"], Any]

_MISS = object()

# Scalar-function name -> lowering, filled in by ``_lowers`` below.
_LOWERINGS: dict[str, Callable[[ScalarCall], CompiledFn]] = {}


def expression_digest(expr: Expression) -> str:
    """Stable structural key for CSE caching (and closure-cache keying)."""
    return json.dumps(expr.to_dict(), sort_keys=True, default=str)


def compile_expression(expr: Expression) -> CompiledFn:
    """Compile ``expr`` to a closure over ``(table, cache)``.

    Raises :class:`UnsupportedExpressionError` for any node that cannot
    be lowered, before a single kernel runs, so planner passes can decline
    fusion before execution starts.
    """
    if isinstance(expr, FieldRef):
        index = expr.index
        return lambda table, cache: table.columns[index]
    if isinstance(expr, Literal):
        value = expr.value
        return lambda table, cache: value
    if isinstance(expr, ScalarCall):
        lower = _LOWERINGS.get(expr.func)
        if lower is None:
            raise UnsupportedExpressionError(
                f"scalar function {expr.func!r} not supported on device"
            )
        return _memoised(expr, lower(expr))
    raise UnsupportedExpressionError(f"cannot compile {expr!r} for device execution")


def compile_predicate(expr: Expression) -> Callable[[GTable, "dict | None"], np.ndarray]:
    """Compile a boolean expression to a keep-mask closure (NULL -> False)."""
    node = compile_expression(expr)
    return lambda table, cache: keep_mask(node(table, cache), table)


def compile_projection(expr: Expression, dtype: DType | None = None) -> CompiledFn:
    """Compile a projection expression, materialising a bare scalar with
    the planner-typed ``dtype`` of its output slot."""
    node = compile_expression(expr)
    return lambda table, cache: materialise(node(table, cache), table, dtype)


def keep_mask(value, table: GTable) -> np.ndarray:
    """A boolean result as a keep-mask over ``table`` (NULL -> False): the
    column's data itself when it has no validity buffer."""
    if not isinstance(value, GColumn):
        return np.full(table.num_rows, bool(value), dtype=np.bool_)
    data = np.asarray(value.data, dtype=np.bool_)
    return data if value.validity is None else data & value.validity.array


def materialise(value, table: GTable, dtype: DType | None = None) -> GColumn:
    """A result as a column over ``table``.  Without ``dtype`` a scalar is
    materialised with a dtype inferred from its Python value (``0`` ->
    INT64 even in a FLOAT64 position, ``None`` -> INT64 whatever the typed
    NULL's dtype)."""
    if isinstance(value, GColumn):
        return value
    return fill_constant(table.device, table.num_rows, value, dtype=dtype)


def _memoised(expr: ScalarCall, inner: CompiledFn) -> CompiledFn:
    key = None

    def run(table: GTable, cache: "dict | None"):
        nonlocal key
        if cache is None:
            return inner(table, None)
        if key is None:
            key = expression_digest(expr)
        hit = cache.get(key, _MISS)
        if hit is not _MISS:
            return hit
        value = inner(table, cache)
        cache[key] = value
        return value

    return run


def _literal_value(expr: Expression, what: str):
    if not isinstance(expr, Literal):
        raise UnsupportedExpressionError(f"{what} must be a literal, got {expr!r}")
    return expr.value


def _lowers(*funcs: str):
    """Register the decorated function as the lowering of ``funcs``."""

    def register(lower):
        for func in funcs:
            _LOWERINGS[func] = lower
        return lower

    return register


def _binary(call: ScalarCall, fold, kernel) -> CompiledFn:
    """``kernel(left, right)`` unless both sides are constants, which
    ``fold`` folds on the host (e.g. optimizer leftovers)."""
    left = compile_expression(call.args[0])
    right = compile_expression(call.args[1])

    def run(table, cache):
        lv = left(table, cache)
        rv = right(table, cache)
        if not isinstance(lv, GColumn) and not isinstance(rv, GColumn):
            return fold(lv, rv)
        return kernel(lv, rv)

    return run


def _unary(call: ScalarCall, fold, kernel) -> CompiledFn:
    """``kernel(operand)``; a constant operand folds on the host, NULL
    propagating."""
    operand = compile_expression(call.args[0])

    def run(table, cache):
        value = operand(table, cache)
        if not isinstance(value, GColumn):
            return None if value is None else fold(value)
        return kernel(value)

    return run


def _variadic(call: ScalarCall, fold, kernel) -> CompiledFn:
    """``kernel(values)`` over all arguments unless every one is a
    constant, which ``fold`` folds on the host."""
    operands = [compile_expression(a) for a in call.args]

    def run(table, cache):
        values = [o(table, cache) for o in operands]
        if not any(isinstance(v, GColumn) for v in values):
            return fold(values)
        return kernel(values)

    return run


def _on_column(call: ScalarCall, kernel) -> CompiledFn:
    """``kernel(column)`` over the first argument, a constant broadcast
    to a column first."""
    operand = compile_expression(call.args[0])
    return lambda table, cache: kernel(materialise(operand(table, cache), table))


def _null_propagating(op):
    return lambda left, right: None if left is None or right is None else op(left, right)


def _remainder(left, right):
    """SQL's ``%``: it takes the dividend's sign, and a zero divisor is NULL."""
    if right == 0:
        return None
    remainder = abs(left) % abs(right)
    return remainder if left >= 0 else -remainder


def _null_is_false(op):
    return lambda left, right: left is not None and right is not None and bool(op(left, right))


# Host-side folds of an operation between two constants.
_ARITH_FOLDS = {
    "add": _null_propagating(operator.add),
    "subtract": _null_propagating(operator.sub),
    "multiply": _null_propagating(operator.mul),
    "divide": _null_propagating(lambda left, right: left / right if right != 0 else None),
    "modulo": _null_propagating(_remainder),
}
_CMP_FOLDS = {
    "eq": _null_is_false(operator.eq),
    "ne": _null_is_false(operator.ne),
    "lt": _null_is_false(operator.lt),
    "le": _null_is_false(operator.le),
    "gt": _null_is_false(operator.gt),
    "ge": _null_is_false(operator.ge),
}


@_lowers(*_ARITH_FOLDS)
def _arith(call):
    f = call.func
    return _binary(call, _ARITH_FOLDS[f], lambda left, right: binary_arith(f, left, right))


@_lowers(*_CMP_FOLDS)
def _comparison(call):
    f = call.func
    return _binary(call, _CMP_FOLDS[f], lambda left, right: compare(f, left, right))


@_lowers("and")
def _and(call):
    return _binary(call, lambda left, right: bool(left) and bool(right), logical_and)


@_lowers("or")
def _or(call):
    return _binary(call, lambda left, right: bool(left) or bool(right), logical_or)


@_lowers("not")
def _not(call):
    return _unary(call, lambda value: not bool(value), logical_not)


@_lowers("negate")
def _negate(call):
    return _unary(call, operator.neg, lambda col: binary_arith("multiply", col, -1))


@_lowers("abs")
def _abs(call):
    return _unary(call, abs, absolute)


@_lowers("round")
def _round(call):
    digits = int(_literal_value(call.args[1], "round digits")) if len(call.args) > 1 else 0
    return _unary(
        call,
        lambda value: float(round(float(value), digits)),
        lambda col: round_column(col, digits),
    )


@_lowers("is_null", "is_not_null")
def _is_null(call):
    negate = call.func == "is_not_null"
    return _on_column(call, lambda col: is_null(col, negate=negate))


@_lowers("like", "not_like")
def _like(call):
    pattern = _literal_value(call.args[1], "LIKE pattern")
    negate = call.func == "not_like"
    escape = call.options.get("escape")
    return _on_column(call, lambda col: like(col, pattern, negate=negate, escape=escape))


@_lowers("contains")
def _contains(call):
    needle = _literal_value(call.args[1], "contains needle")
    return _on_column(call, lambda col: contains(col, needle))


@_lowers("starts_with")
def _starts_with(call):
    pattern = f"{_literal_value(call.args[1], 'starts_with prefix')}%"
    return _on_column(call, lambda col: like(col, pattern))


@_lowers("in", "not_in")
def _in(call):
    values = [_literal_value(a, "IN list element") for a in call.args[1:]]
    if call.func == "in":
        return _on_column(call, lambda col: in_list(col, values))
    return _on_column(call, lambda col: logical_not(in_list(col, values)))


@_lowers("upper", "lower")
def _string_case(call):
    upper = call.func == "upper"
    return _on_column(call, lambda col: string_case(col, upper=upper))


@_lowers("length")
def _length(call):
    return _on_column(call, string_length)


@_lowers("cast")
def _cast(call):
    target = dtype_from_name(call.options["to"])
    return _on_column(call, lambda col: cast_column(col, target))


@_lowers("extract_year", "extract_month", "extract_day")
def _extract(call):
    part = call.func.removeprefix("extract_")
    return _on_column(call, lambda col: extract_date_part(part, col))


@_lowers("substring")
def _substring(call):
    start = int(_literal_value(call.args[1], "substring start"))
    length = int(_literal_value(call.args[2], "substring length"))
    return _on_column(call, lambda col: substring(col, start, length))


@_lowers("between")
def _between(call):
    column, low, high = (compile_expression(a) for a in call.args[:3])

    def run(table, cache):
        value = column(table, cache)
        lo = low(table, cache)
        hi = high(table, cache)
        return logical_and(compare("ge", value, lo), compare("le", value, hi))

    return run


@_lowers("case")
def _case(call):
    # args = [cond1, res1, cond2, res2, ..., default]
    compiled = [compile_expression(a) for a in call.args]
    conditions, results, default = compiled[:-1:2], compiled[1:-1:2], compiled[-1]

    def run(table, cache):
        return case_when(
            [materialise(c(table, cache), table) for c in conditions],
            [r(table, cache) for r in results],
            default(table, cache),
        )

    return run


@_lowers("coalesce")
def _coalesce(call):
    return _variadic(
        call, lambda values: next((v for v in values if v is not None), None), coalesce
    )


@_lowers("concat")
def _concat(call):
    def fold(values):
        if any(v is None for v in values):
            return None
        return "".join(str(v) for v in values)

    return _variadic(call, fold, concat_strings)
