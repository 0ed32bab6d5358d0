"""Expression trees for the Substrait-style plan IR.

Like Substrait, expressions reference input columns by *ordinal*
(:class:`FieldRef`), carry embedded literals, and invoke functions by
name.  The function namespace is flat and closed (see ``SCALAR_ARITY``)
— the engine's expression evaluator maps each name onto a kernel.

Every node serialises to/from plain dicts so plans can round-trip through
JSON, which is how the host databases hand plans to Sirius.
"""

from __future__ import annotations

import datetime
from typing import Any, Sequence

from ..columnar import BOOL, DATE32, FLOAT64, INT64, STRING, DType, Schema
from ..columnar.dtypes import common_numeric_type, dtype_from_name

__all__ = [
    "Expression",
    "FieldRef",
    "Literal",
    "ScalarCall",
    "AggregateCall",
    "SCALAR_FUNCTIONS",
    "SCALAR_ARITY",
    "AGGREGATE_FUNCTIONS",
    "check_arity",
    "infer_type",
    "expr_from_dict",
    "walk_expressions",
]

# (fewest, most) arguments each scalar function takes; ``None`` = any
# number.  ``case`` is [cond, result]* + [default].
SCALAR_ARITY: dict[str, tuple[int, int | None]] = {
    **dict.fromkeys(
        ("add", "subtract", "multiply", "divide", "modulo",
         "eq", "ne", "lt", "le", "gt", "ge", "and", "or",
         "like", "not_like", "contains", "starts_with"),
        (2, 2),
    ),
    **dict.fromkeys(
        ("negate", "not", "is_null", "is_not_null", "upper", "lower",
         "length", "abs", "cast", "extract_year", "extract_month",
         "extract_day"),
        (1, 1),
    ),
    "round": (1, 2),
    **dict.fromkeys(("substring", "between"), (3, 3)),
    **dict.fromkeys(("in", "not_in", "concat", "coalesce", "case"), (1, None)),
}

# Scalar function names understood by the engines.
SCALAR_FUNCTIONS = frozenset(SCALAR_ARITY)

AGGREGATE_FUNCTIONS = frozenset({"sum", "min", "max", "count", "count_star", "avg", "count_distinct"})

_COMPARISONS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})
_PREDICATES = frozenset(
    {"and", "or", "not", "is_null", "is_not_null", "like", "not_like",
     "contains", "starts_with", "in", "not_in", "between"}
)


class Expression:
    """Base class for all expression nodes."""

    def to_dict(self) -> dict:
        raise NotImplementedError

    def children(self) -> Sequence["Expression"]:
        return ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(repr(self))


class FieldRef(Expression):
    """Reference to the input relation's column at ``index``."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ValueError("field index must be non-negative")
        self.index = int(index)

    def to_dict(self) -> dict:
        return {"kind": "field", "index": self.index}

    def __repr__(self) -> str:
        return f"${self.index}"


class Literal(Expression):
    """An embedded constant.  Dates are carried as :class:`datetime.date`."""

    __slots__ = ("value", "dtype")

    def __init__(self, value: Any, dtype: DType | None = None):
        self.value = value
        self.dtype = dtype if dtype is not None else _literal_dtype(value)

    def to_dict(self) -> dict:
        value = self.value
        if isinstance(value, datetime.date):
            value = value.isoformat()
        return {"kind": "literal", "value": value, "dtype": self.dtype.name if self.dtype else None}

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class ScalarCall(Expression):
    """A scalar function invocation.

    ``options`` carries non-expression arguments (the cast target type,
    LIKE's escape character); LIKE patterns and substring bounds live as
    Literal args.
    """

    __slots__ = ("func", "args", "options")

    def __init__(self, func: str, args: Sequence[Expression], options: dict | None = None):
        if func not in SCALAR_FUNCTIONS:
            raise ValueError(f"unknown scalar function {func!r}")
        self.func = func
        self.args = list(args)
        self.options = dict(options or {})

    def children(self) -> Sequence[Expression]:
        return self.args

    def to_dict(self) -> dict:
        out = {"kind": "call", "func": self.func, "args": [a.to_dict() for a in self.args]}
        if self.options:
            out["options"] = dict(self.options)
        return out

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.func}({inner})"


class AggregateCall(Expression):
    """An aggregate invocation appearing in an AggregateRel measure."""

    __slots__ = ("op", "arg", "distinct")

    def __init__(self, op: str, arg: Expression | None, distinct: bool = False):
        if op not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unknown aggregate {op!r}")
        if arg is None and op != "count_star":
            raise ValueError(f"aggregate {op} requires an argument")
        self.op = op
        self.arg = arg
        self.distinct = bool(distinct)

    def children(self) -> Sequence[Expression]:
        return () if self.arg is None else (self.arg,)

    def to_dict(self) -> dict:
        return {
            "kind": "agg",
            "op": self.op,
            "arg": None if self.arg is None else self.arg.to_dict(),
            "distinct": self.distinct,
        }

    def __repr__(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        prefix = "distinct " if self.distinct else ""
        return f"{self.op}({prefix}{inner})"


def walk_expressions(expr: Expression):
    """Yield every expression node in a tree, parents first."""
    yield expr
    for child in expr.children():
        yield from walk_expressions(child)


def _literal_dtype(value: Any) -> DType:
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT64
    if isinstance(value, float):
        return FLOAT64
    if isinstance(value, str):
        return STRING
    if isinstance(value, datetime.date):
        return DATE32
    if value is None:
        return INT64  # typed NULL defaults; callers may override
    raise TypeError(f"unsupported literal {value!r}")


def infer_type(expr: Expression, schema: Schema) -> DType:
    """Derive the result type of ``expr`` against an input ``schema``."""
    if isinstance(expr, FieldRef):
        if expr.index >= len(schema):
            raise IndexError(f"field {expr.index} out of range for schema of {len(schema)}")
        return schema.fields[expr.index].dtype
    if isinstance(expr, Literal):
        return expr.dtype
    if isinstance(expr, AggregateCall):
        return aggregate_result_type(expr, schema)
    if isinstance(expr, ScalarCall):
        check_arity(expr)
        return _call_type(expr, schema)
    raise TypeError(f"cannot infer type of {expr!r}")


def check_arity(call: ScalarCall) -> None:
    """Raise ``TypeError`` unless ``call`` has as many arguments as its
    function takes (:data:`SCALAR_ARITY`)."""
    fewest, most = SCALAR_ARITY[call.func]
    got = len(call.args)
    if fewest <= got and (most is None or got <= most) and (
        call.func != "case" or got % 2 == 1
    ):
        return
    if call.func == "case":
        takes = "an odd number of arguments"
    elif most is None:
        takes = f"at least {fewest} argument{'s' if fewest > 1 else ''}"
    elif fewest == most:
        takes = f"{fewest} argument{'s' if fewest > 1 else ''}"
    else:
        takes = f"{fewest} to {most} arguments"
    raise TypeError(f"{call.func} takes {takes}, got {got}")


def aggregate_result_type(agg: AggregateCall, schema: Schema) -> DType:
    if agg.op in ("count", "count_star", "count_distinct"):
        return INT64
    arg_type = infer_type(agg.arg, schema)
    if agg.op in ("sum", "avg") and not arg_type.is_numeric:
        raise TypeError(f"{agg.op} requires a numeric argument, got {arg_type.name}")
    if agg.op == "avg":
        return FLOAT64
    if agg.op == "sum":
        return INT64 if arg_type.is_integer else FLOAT64
    return arg_type  # min / max


def _call_type(call: ScalarCall, schema: Schema) -> DType:
    f = call.func
    if f in _COMPARISONS or f in _PREDICATES:
        return BOOL
    if f == "divide":
        return FLOAT64
    if f in ("add", "subtract", "multiply", "modulo"):
        left = infer_type(call.args[0], schema)
        right = infer_type(call.args[1], schema)
        if left is DATE32 and right.is_integer and f in ("add", "subtract"):
            return DATE32
        if left is DATE32 and right is DATE32 and f == "subtract":
            return INT64
        return common_numeric_type(left, right)
    if f == "negate":
        return infer_type(call.args[0], schema)
    if f == "cast":
        return dtype_from_name(call.options["to"])
    if f == "substring":
        return STRING
    if f in ("upper", "lower", "concat"):
        for arg in call.args:
            t = infer_type(arg, schema)
            if not t.is_string and not _is_null_literal(arg):
                raise TypeError(f"{f} requires string arguments, got {t.name}")
        return STRING
    if f == "length":
        t = infer_type(call.args[0], schema)
        if not t.is_string and not _is_null_literal(call.args[0]):
            raise TypeError(f"length requires a string argument, got {t.name}")
        return INT64
    if f == "abs":
        t = infer_type(call.args[0], schema)
        if not t.is_numeric:
            raise TypeError(f"abs requires a numeric argument, got {t.name}")
        return t
    if f == "round":
        t = infer_type(call.args[0], schema)
        if not t.is_numeric:
            raise TypeError(f"round requires a numeric argument, got {t.name}")
        return FLOAT64
    if f in ("extract_year", "extract_month", "extract_day"):
        return INT64
    if f == "case":
        # args = [cond1, res1, cond2, res2, ..., default].  NULL-literal
        # branches defer typing to the first typed branch.
        for i in list(range(1, len(call.args), 2)) + [len(call.args) - 1]:
            if not _is_null_literal(call.args[i]):
                return infer_type(call.args[i], schema)
        return infer_type(call.args[-1], schema)
    if f == "coalesce":
        for arg in call.args:
            if not _is_null_literal(arg):
                return infer_type(arg, schema)
        return infer_type(call.args[0], schema)
    raise TypeError(f"cannot type scalar call {f!r}")


def _is_null_literal(expr: Expression) -> bool:
    return isinstance(expr, Literal) and expr.value is None


def expr_from_dict(data: dict) -> Expression:
    """Deserialize an expression previously produced by ``to_dict``."""
    kind = data["kind"]
    if kind == "field":
        return FieldRef(data["index"])
    if kind == "literal":
        dtype = dtype_from_name(data["dtype"]) if data.get("dtype") else None
        value = data["value"]
        if dtype is DATE32 and isinstance(value, str):
            value = datetime.date.fromisoformat(value)
        return Literal(value, dtype)
    if kind == "call":
        args = [expr_from_dict(a) for a in data["args"]]
        return ScalarCall(data["func"], args, data.get("options"))
    if kind == "agg":
        arg = expr_from_dict(data["arg"]) if data.get("arg") else None
        return AggregateCall(data["op"], arg, data.get("distinct", False))
    raise ValueError(f"unknown expression kind {kind!r}")
