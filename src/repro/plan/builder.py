"""A fluent, name-based builder over the ordinal plan IR.

The raw IR references columns by ordinal (Substrait style); this builder
lets tests, examples, and the SQL planner compose plans by column *name*:

    plan = (PlanBuilder.read("lineitem", schema)
        .filter(col("l_shipdate") <= date(1998, 9, 2))
        .aggregate(groups=["l_returnflag"], aggs=[("sum", "l_quantity", "sum_qty")])
        .sort([("l_returnflag", True)])
        .build())

Expression helpers: :func:`col` produces a deferred name reference that is
resolved against the input schema when the enclosing relation is added.
"""

from __future__ import annotations

import datetime
from typing import Any, Sequence

from ..columnar import Schema
from .expressions import AggregateCall, Expression, FieldRef, Literal, ScalarCall
from .plan import Plan
from .relations import (
    AggregateRel,
    FetchRel,
    FilterRel,
    JoinRel,
    ProjectRel,
    ReadRel,
    Relation,
    SortRel,
)

__all__ = ["col", "lit", "NamedExpr", "PlanBuilder"]


class NamedExpr:
    """A deferred expression over column *names*, resolved at build time."""

    def __init__(self, kind: str, payload: Any, children: Sequence["NamedExpr"] = ()):
        self.kind = kind  # "col" | "lit" | "call"
        self.payload = payload
        self.children = list(children)

    # -- operator sugar -----------------------------------------------------

    def _bin(self, func: str, other: Any) -> "NamedExpr":
        return NamedExpr("call", func, [self, _wrap(other)])

    def __add__(self, other):
        return self._bin("add", other)

    def __sub__(self, other):
        return self._bin("subtract", other)

    def __mul__(self, other):
        return self._bin("multiply", other)

    def __truediv__(self, other):
        return self._bin("divide", other)

    def __eq__(self, other):  # type: ignore[override]
        return self._bin("eq", other)

    def __ne__(self, other):  # type: ignore[override]
        return self._bin("ne", other)

    def __lt__(self, other):
        return self._bin("lt", other)

    def __le__(self, other):
        return self._bin("le", other)

    def __gt__(self, other):
        return self._bin("gt", other)

    def __ge__(self, other):
        return self._bin("ge", other)

    def __and__(self, other):
        return self._bin("and", other)

    def __or__(self, other):
        return self._bin("or", other)

    def __invert__(self):
        return NamedExpr("call", "not", [self])

    def like(self, pattern: str) -> "NamedExpr":
        return self._bin("like", pattern)

    def isin(self, values: Sequence[Any]) -> "NamedExpr":
        return NamedExpr("call", "in", [self] + [_wrap(v) for v in values])

    def between(self, low: Any, high: Any) -> "NamedExpr":
        return NamedExpr("call", "between", [self, _wrap(low), _wrap(high)])

    def extract(self, part: str) -> "NamedExpr":
        return NamedExpr("call", f"extract_{part}", [self])

    def is_null(self) -> "NamedExpr":
        return NamedExpr("call", "is_null", [self])

    def resolve(self, schema: Schema) -> Expression:
        """Lower to the ordinal IR against ``schema``."""
        if self.kind == "col":
            return FieldRef(schema.index_of(self.payload))
        if self.kind == "lit":
            return Literal(self.payload)
        args = [c.resolve(schema) for c in self.children]
        return ScalarCall(self.payload, args)

    def __hash__(self):
        return id(self)


def col(name: str) -> NamedExpr:
    """Reference a column by name."""
    return NamedExpr("col", name)


def lit(value: Any) -> NamedExpr:
    """Embed a literal (int/float/str/bool/date)."""
    return NamedExpr("lit", value)


def _wrap(value: Any) -> NamedExpr:
    if isinstance(value, NamedExpr):
        return value
    if isinstance(value, (int, float, str, bool, datetime.date)):
        return lit(value)
    raise TypeError(f"cannot use {value!r} in an expression")


class PlanBuilder:
    """Accumulates relations; every method returns a new builder."""

    def __init__(self, rel: Relation):
        self._rel = rel

    @classmethod
    def read(
        cls,
        table_name: str,
        schema: Schema,
        projection: Sequence[str] | None = None,
    ) -> "PlanBuilder":
        return cls(ReadRel(table_name, schema, projection))

    @property
    def relation(self) -> Relation:
        return self._rel

    def schema(self) -> Schema:
        return self._rel.output_schema()

    def filter(self, condition: NamedExpr) -> "PlanBuilder":
        resolved = condition.resolve(self.schema())
        return PlanBuilder(FilterRel(self._rel, resolved))

    def project(self, items: Sequence[tuple[NamedExpr | str, str]]) -> "PlanBuilder":
        """Project ``(expression_or_column_name, output_name)`` pairs."""
        schema = self.schema()
        exprs = []
        names = []
        for item, name in items:
            expr = col(item) if isinstance(item, str) else item
            exprs.append(expr.resolve(schema))
            names.append(name)
        return PlanBuilder(ProjectRel(self._rel, exprs, names))

    def select(self, names: Sequence[str]) -> "PlanBuilder":
        return self.project([(n, n) for n in names])

    def join(
        self,
        other: "PlanBuilder",
        join_type: str,
        on: Sequence[tuple[str, str]],
        post_filter: NamedExpr | None = None,
    ) -> "PlanBuilder":
        """Join with ``on`` = [(left_col, right_col), ...] name pairs."""
        left_schema = self.schema()
        right_schema = other.schema()
        left_keys = [left_schema.index_of(name) for name, _ in on]
        right_keys = [right_schema.index_of(r) for _, r in on]
        rel = JoinRel(self._rel, other._rel, join_type, left_keys, right_keys)
        if post_filter is not None:
            joined_schema = rel.output_schema()
            rel = JoinRel(
                self._rel, other._rel, join_type, left_keys, right_keys,
                post_filter.resolve(joined_schema),
            )
        return PlanBuilder(rel)

    def aggregate(
        self,
        groups: Sequence[str],
        aggs: Sequence[tuple[str, NamedExpr | str | None, str]],
    ) -> "PlanBuilder":
        """Aggregate: ``aggs`` = [(op, input_expr_or_name_or_None, out_name)].

        Non-trivial aggregate inputs are materialised through an implicit
        projection first (the IR's AggregateRel aggregates field refs and
        simple expressions alike, but projecting keeps plans uniform).
        """
        schema = self.schema()
        group_indices = [schema.index_of(g) for g in groups]
        measures = []
        for op, arg, name in aggs:
            distinct = False
            if op.endswith("_distinct") and op != "count_distinct":
                raise ValueError(f"unknown aggregate {op}")
            if op == "count_distinct":
                op, distinct = "count", True
            if arg is None:
                call = AggregateCall("count_star" if op == "count" else op, None)
            else:
                arg_expr = col(arg) if isinstance(arg, str) else arg
                resolved = arg_expr.resolve(schema)
                base_op = "count_distinct" if (op == "count" and distinct) else op
                call = AggregateCall(base_op, resolved, distinct)
            measures.append((call, name))
        return PlanBuilder(AggregateRel(self._rel, group_indices, measures))

    def sort(self, keys: Sequence[tuple[str, bool]]) -> "PlanBuilder":
        schema = self.schema()
        resolved = [(schema.index_of(n), asc) for n, asc in keys]
        return PlanBuilder(SortRel(self._rel, resolved))

    def limit(self, count: int, offset: int = 0) -> "PlanBuilder":
        return PlanBuilder(FetchRel(self._rel, offset, count))

    def build(self) -> Plan:
        plan = Plan(self._rel)
        plan.validate()
        return plan
