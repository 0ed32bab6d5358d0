"""Relational operators of the Substrait-style plan IR.

Each relation derives its own output schema (once), serialises to a dict,
and can be rebuilt with new inputs (``with_inputs``) so optimizer rules can
rewrite trees without mutation.

Join output schema follows Substrait: left fields then right fields (for
semi/anti joins, left fields only).  Aggregate output schema is the group
key fields followed by one field per measure.
"""

from __future__ import annotations

from typing import Sequence

from ..columnar import Field, Schema
from .expressions import (
    AggregateCall,
    Expression,
    aggregate_result_type,
    expr_from_dict,
    infer_type,
)

__all__ = [
    "Relation",
    "ReadRel",
    "FilterRel",
    "ProjectRel",
    "JoinRel",
    "AggregateRel",
    "SortRel",
    "FetchRel",
    "JOIN_TYPES",
    "rel_from_dict",
]

JOIN_TYPES = ("inner", "left", "semi", "anti")


def join_output_schema(left: Schema, right: Schema) -> Schema:
    """Concatenate join input schemas, disambiguating duplicate names.

    Substrait addresses join outputs by ordinal, so duplicate names are
    legal there; our named schemas rename right-side collisions
    deterministically (``k`` -> ``k#1``) — exactly what engines like DuckDB
    surface for ambiguous join outputs.
    """
    fields: list[Field] = []
    seen: set[str] = set()
    for f in list(left.fields) + list(right.fields):
        name = f.name
        suffix = 1
        while name in seen:
            name = f"{f.name}#{suffix}"
            suffix += 1
        seen.add(name)
        fields.append(Field(name, f.dtype))
    return Schema(fields)


class Relation:
    """Base class for plan relations.

    Relations are never mutated after construction (rewrites build new
    nodes through :meth:`with_inputs`), so each derives its output schema
    once, on first use.
    """

    inputs: tuple["Relation", ...] = ()
    _schema: Schema | None = None

    def output_schema(self) -> Schema:
        if self._schema is None:
            self._schema = self._derive_schema()
        return self._schema

    def _derive_schema(self) -> Schema:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def with_inputs(self, inputs: Sequence["Relation"]) -> "Relation":
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relation) and self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return id(self)


class ReadRel(Relation):
    """A named-table scan with optional column projection and pushed filter."""

    def __init__(
        self,
        table_name: str,
        base_schema: Schema,
        projection: Sequence[str] | None = None,
        filter_expr: Expression | None = None,
    ):
        self.table_name = table_name
        self.base_schema = base_schema
        self.projection = list(projection) if projection is not None else None
        self.filter_expr = filter_expr
        if self.projection is not None:
            for name in self.projection:
                if name not in base_schema:
                    raise KeyError(f"projected column {name!r} not in {table_name}")

    def _derive_schema(self) -> Schema:
        if self.projection is None:
            return self.base_schema
        return Schema([self.base_schema.field(n) for n in self.projection])

    def to_dict(self) -> dict:
        return {
            "rel": "read",
            "table": self.table_name,
            "base_schema": [(f.name, f.dtype.name) for f in self.base_schema],
            "projection": self.projection,
            "filter": self.filter_expr.to_dict() if self.filter_expr else None,
        }

    def with_inputs(self, inputs: Sequence[Relation]) -> "ReadRel":
        if inputs:
            raise ValueError("ReadRel takes no inputs")
        return self

    def __repr__(self) -> str:
        return f"Read({self.table_name})"


class FilterRel(Relation):
    """Row selection by a boolean condition."""

    def __init__(self, input_rel: Relation, condition: Expression):
        self.inputs = (input_rel,)
        self.condition = condition

    @property
    def input_rel(self) -> Relation:
        return self.inputs[0]

    def _derive_schema(self) -> Schema:
        return self.input_rel.output_schema()

    def to_dict(self) -> dict:
        return {
            "rel": "filter",
            "input": self.input_rel.to_dict(),
            "condition": self.condition.to_dict(),
        }

    def with_inputs(self, inputs: Sequence[Relation]) -> "FilterRel":
        (inp,) = inputs
        return FilterRel(inp, self.condition)

    def __repr__(self) -> str:
        return f"Filter({self.condition!r})"


class ProjectRel(Relation):
    """Compute named expressions over the input."""

    def __init__(self, input_rel: Relation, expressions: Sequence[Expression], names: Sequence[str]):
        if len(expressions) != len(names):
            raise ValueError("one name per projected expression required")
        self.inputs = (input_rel,)
        self.expressions = list(expressions)
        self.names = list(names)

    @property
    def input_rel(self) -> Relation:
        return self.inputs[0]

    def _derive_schema(self) -> Schema:
        in_schema = self.input_rel.output_schema()
        return Schema(
            [Field(n, infer_type(e, in_schema)) for n, e in zip(self.names, self.expressions)]
        )

    def to_dict(self) -> dict:
        return {
            "rel": "project",
            "input": self.input_rel.to_dict(),
            "expressions": [e.to_dict() for e in self.expressions],
            "names": list(self.names),
        }

    def with_inputs(self, inputs: Sequence[Relation]) -> "ProjectRel":
        (inp,) = inputs
        return ProjectRel(inp, self.expressions, self.names)

    def __repr__(self) -> str:
        return f"Project({self.names})"


class JoinRel(Relation):
    """Equi-join with optional residual filter over the joined schema."""

    def __init__(
        self,
        left: Relation,
        right: Relation,
        join_type: str,
        left_keys: Sequence[int],
        right_keys: Sequence[int],
        post_filter: Expression | None = None,
    ):
        if join_type not in JOIN_TYPES:
            raise ValueError(f"unknown join type {join_type!r}")
        if len(left_keys) != len(right_keys):
            raise ValueError("join needs equal numbers of keys on both sides")
        self.inputs = (left, right)
        self.join_type = join_type
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.post_filter = post_filter

    @property
    def left(self) -> Relation:
        return self.inputs[0]

    @property
    def right(self) -> Relation:
        return self.inputs[1]

    def _derive_schema(self) -> Schema:
        left_schema = self.left.output_schema()
        if self.join_type in ("semi", "anti"):
            return left_schema
        return join_output_schema(left_schema, self.right.output_schema())

    def to_dict(self) -> dict:
        return {
            "rel": "join",
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
            "type": self.join_type,
            "left_keys": list(self.left_keys),
            "right_keys": list(self.right_keys),
            "post_filter": self.post_filter.to_dict() if self.post_filter else None,
        }

    def with_inputs(self, inputs: Sequence[Relation]) -> "JoinRel":
        left, right = inputs
        return JoinRel(left, right, self.join_type, self.left_keys, self.right_keys, self.post_filter)

    def __repr__(self) -> str:
        return f"Join({self.join_type}, {self.left_keys}={self.right_keys})"


class AggregateRel(Relation):
    """Grouped (or global, when ``group_indices`` is empty) aggregation."""

    def __init__(
        self,
        input_rel: Relation,
        group_indices: Sequence[int],
        measures: Sequence[tuple[AggregateCall, str]],
    ):
        self.inputs = (input_rel,)
        self.group_indices = list(group_indices)
        self.measures = list(measures)

    @property
    def input_rel(self) -> Relation:
        return self.inputs[0]

    def _derive_schema(self) -> Schema:
        in_schema = self.input_rel.output_schema()
        fields = [in_schema.fields[i] for i in self.group_indices]
        for agg, name in self.measures:
            fields.append(Field(name, aggregate_result_type(agg, in_schema)))
        return Schema(fields)

    def to_dict(self) -> dict:
        return {
            "rel": "aggregate",
            "input": self.input_rel.to_dict(),
            "groups": list(self.group_indices),
            "measures": [{"agg": a.to_dict(), "name": n} for a, n in self.measures],
        }

    def with_inputs(self, inputs: Sequence[Relation]) -> "AggregateRel":
        (inp,) = inputs
        return AggregateRel(inp, self.group_indices, self.measures)

    def __repr__(self) -> str:
        return f"Aggregate(groups={self.group_indices}, measures={[n for _, n in self.measures]})"


class SortRel(Relation):
    """Total ordering by (field index, ascending) sort keys."""

    def __init__(self, input_rel: Relation, sort_keys: Sequence[tuple[int, bool]]):
        if not sort_keys:
            raise ValueError("SortRel needs at least one key")
        self.inputs = (input_rel,)
        # The ordinal is kept as given: Plan.validate() judges it, uncoerced.
        self.sort_keys = [(i, bool(a)) for i, a in sort_keys]

    @property
    def input_rel(self) -> Relation:
        return self.inputs[0]

    def _derive_schema(self) -> Schema:
        return self.input_rel.output_schema()

    def to_dict(self) -> dict:
        return {
            "rel": "sort",
            "input": self.input_rel.to_dict(),
            "keys": [[i, a] for i, a in self.sort_keys],
        }

    def with_inputs(self, inputs: Sequence[Relation]) -> "SortRel":
        (inp,) = inputs
        return SortRel(inp, self.sort_keys)

    def __repr__(self) -> str:
        return f"Sort({self.sort_keys})"


class FetchRel(Relation):
    """OFFSET/LIMIT."""

    def __init__(self, input_rel: Relation, offset: int, count: int | None):
        self.inputs = (input_rel,)
        self.offset = int(offset)
        self.count = None if count is None else int(count)

    @property
    def input_rel(self) -> Relation:
        return self.inputs[0]

    def _derive_schema(self) -> Schema:
        return self.input_rel.output_schema()

    def to_dict(self) -> dict:
        return {
            "rel": "fetch",
            "input": self.input_rel.to_dict(),
            "offset": self.offset,
            "count": self.count,
        }

    def with_inputs(self, inputs: Sequence[Relation]) -> "FetchRel":
        (inp,) = inputs
        return FetchRel(inp, self.offset, self.count)

    def __repr__(self) -> str:
        return f"Fetch(offset={self.offset}, count={self.count})"


def rel_from_dict(data: dict) -> Relation:
    """Deserialize a relation tree from its dict form."""
    kind = data["rel"]
    if kind == "read":
        schema = Schema([(n, t) for n, t in data["base_schema"]])
        filt = expr_from_dict(data["filter"]) if data.get("filter") else None
        return ReadRel(data["table"], schema, data.get("projection"), filt)
    if kind == "filter":
        return FilterRel(rel_from_dict(data["input"]), expr_from_dict(data["condition"]))
    if kind == "project":
        return ProjectRel(
            rel_from_dict(data["input"]),
            [expr_from_dict(e) for e in data["expressions"]],
            data["names"],
        )
    if kind == "join":
        post = expr_from_dict(data["post_filter"]) if data.get("post_filter") else None
        return JoinRel(
            rel_from_dict(data["left"]),
            rel_from_dict(data["right"]),
            data["type"],
            data["left_keys"],
            data["right_keys"],
            post,
        )
    if kind == "aggregate":
        measures = [(expr_from_dict(m["agg"]), m["name"]) for m in data["measures"]]
        return AggregateRel(rel_from_dict(data["input"]), data["groups"], measures)
    if kind == "sort":
        return SortRel(rel_from_dict(data["input"]), [tuple(k) for k in data["keys"]])
    if kind == "fetch":
        return FetchRel(rel_from_dict(data["input"]), data["offset"], data.get("count"))
    raise ValueError(f"unknown relation kind {kind!r}")
