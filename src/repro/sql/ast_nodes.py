"""SQL abstract syntax tree produced by the parser.

Deliberately close to the grammar: the planner (binder) does all semantic
work.  Every expression node is a small dataclass; ``SelectStmt`` is the
single statement form (CTEs wrap it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "SqlExpr",
    "ColumnRef",
    "NumberLit",
    "StringLit",
    "DateLit",
    "IntervalLit",
    "BoolLit",
    "NullLit",
    "BinaryOp",
    "UnaryOp",
    "FuncCall",
    "AggCall",
    "CaseExpr",
    "CastExpr",
    "BetweenExpr",
    "InExpr",
    "LikeExpr",
    "IsNullExpr",
    "ExistsExpr",
    "ScalarSubquery",
    "Star",
    "SelectItem",
    "TableRef",
    "SubqueryRef",
    "JoinClause",
    "OrderItem",
    "SelectStmt",
    "nodes_of",
]


class SqlExpr:
    """Base class for SQL expressions."""

    def children(self) -> tuple["SqlExpr", ...]:
        """Child expressions in source order.  A subquery is a statement,
        not a child: traversals stop at its boundary."""
        return ()


def nodes_of(expr: SqlExpr, kind) -> list:
    """Every node of ``kind`` (a class or a tuple of classes) in
    ``expr``'s tree, parents first, children in source order: the one AST
    traversal, as ``walk_expressions`` is the plan IR's."""
    out, stack = [], [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            out.append(node)
        children = node.children()
        if children:
            stack.extend(children[::-1])
    return out


@dataclass
class ColumnRef(SqlExpr):
    """``name`` or ``qualifier.name``."""

    name: str
    qualifier: Optional[str] = None

    def __repr__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass
class NumberLit(SqlExpr):
    value: float | int


@dataclass
class StringLit(SqlExpr):
    value: str


@dataclass
class DateLit(SqlExpr):
    """``date 'YYYY-MM-DD'``."""

    value: str


@dataclass
class IntervalLit(SqlExpr):
    """``interval '3' month`` — folded into date literals by the planner."""

    amount: int
    unit: str  # "day" | "month" | "year"


@dataclass
class BoolLit(SqlExpr):
    value: bool


@dataclass
class NullLit(SqlExpr):
    pass


@dataclass
class BinaryOp(SqlExpr):
    op: str  # + - * / % = <> < <= > >= and or
    left: SqlExpr
    right: SqlExpr

    def children(self):
        return (self.left, self.right)


@dataclass
class UnaryOp(SqlExpr):
    op: str  # "-" | "not"
    operand: SqlExpr

    def children(self):
        return (self.operand,)


@dataclass
class FuncCall(SqlExpr):
    """Scalar functions: extract, substring, coalesce, ..."""

    name: str
    args: list[SqlExpr]
    extra: dict = field(default_factory=dict)  # e.g. extract part

    def children(self):
        return tuple(self.args)


@dataclass
class AggCall(SqlExpr):
    """Aggregate invocation in a select list or HAVING."""

    func: str  # sum min max avg count
    arg: Optional[SqlExpr]  # None for count(*)
    distinct: bool = False

    def children(self):
        return () if self.arg is None else (self.arg,)


@dataclass
class CaseExpr(SqlExpr):
    whens: list[tuple[SqlExpr, SqlExpr]]
    default: Optional[SqlExpr]

    def children(self):
        out = tuple(e for when in self.whens for e in when)
        return out if self.default is None else out + (self.default,)


@dataclass
class CastExpr(SqlExpr):
    operand: SqlExpr
    type_name: str

    def children(self):
        return (self.operand,)


@dataclass
class BetweenExpr(SqlExpr):
    operand: SqlExpr
    low: SqlExpr
    high: SqlExpr
    negated: bool = False

    def children(self):
        return (self.operand, self.low, self.high)


@dataclass
class InExpr(SqlExpr):
    operand: SqlExpr
    # Either a literal list or a subquery.
    values: Optional[list[SqlExpr]] = None
    subquery: Optional["SelectStmt"] = None
    negated: bool = False

    def children(self):
        return (self.operand, *(self.values or ()))


@dataclass
class LikeExpr(SqlExpr):
    operand: SqlExpr
    pattern: str
    negated: bool = False
    escape: Optional[str] = None  # single-char ESCAPE clause

    def children(self):
        return (self.operand,)


@dataclass
class IsNullExpr(SqlExpr):
    operand: SqlExpr
    negated: bool = False

    def children(self):
        return (self.operand,)


@dataclass
class ExistsExpr(SqlExpr):
    subquery: "SelectStmt"
    negated: bool = False


@dataclass
class ScalarSubquery(SqlExpr):
    subquery: "SelectStmt"


@dataclass
class Star(SqlExpr):
    """``*`` or ``alias.*`` in a select list (also count(*) / EXISTS)."""

    qualifier: Optional[str] = None


@dataclass
class SelectItem:
    expr: SqlExpr
    alias: Optional[str] = None


@dataclass
class TableRef:
    """A base table (or CTE) reference with optional alias."""

    name: str
    alias: Optional[str] = None


@dataclass
class SubqueryRef:
    """A derived table: ``(select ...) alias``."""

    subquery: "SelectStmt"
    alias: str


@dataclass
class JoinClause:
    """Explicit ``JOIN ... ON`` between the running FROM item and another."""

    kind: str  # "inner" | "left" | "cross"
    right: "TableRef | SubqueryRef"
    condition: Optional[SqlExpr]


@dataclass
class OrderItem:
    expr: SqlExpr
    ascending: bool = True


@dataclass
class SelectStmt:
    """One SELECT query (possibly nested)."""

    items: list[SelectItem] = field(default_factory=list)
    distinct: bool = False
    from_tables: list = field(default_factory=list)  # TableRef | SubqueryRef
    joins: list[JoinClause] = field(default_factory=list)
    where: Optional[SqlExpr] = None
    group_by: list[SqlExpr] = field(default_factory=list)
    having: Optional[SqlExpr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    ctes: dict[str, "SelectStmt"] = field(default_factory=dict)
