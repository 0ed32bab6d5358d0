"""Substrait-style plan IR: expressions, relations, plans, and a builder."""

from .builder import NamedExpr, PlanBuilder, col, lit
from .expressions import (
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
    AggregateCall,
    Expression,
    FieldRef,
    Literal,
    ScalarCall,
    expr_from_dict,
    infer_type,
    walk_expressions,
)
from .plan import Plan, PlanValidationError, walk_relations
from .relations import (
    JOIN_TYPES,
    AggregateRel,
    FetchRel,
    FilterRel,
    JoinRel,
    ProjectRel,
    ReadRel,
    Relation,
    SortRel,
    rel_from_dict,
)

__all__ = [
    "AGGREGATE_FUNCTIONS",
    "AggregateCall",
    "AggregateRel",
    "Expression",
    "FetchRel",
    "FieldRef",
    "FilterRel",
    "JOIN_TYPES",
    "JoinRel",
    "Literal",
    "NamedExpr",
    "Plan",
    "PlanBuilder",
    "PlanValidationError",
    "ProjectRel",
    "ReadRel",
    "Relation",
    "SCALAR_FUNCTIONS",
    "ScalarCall",
    "SortRel",
    "col",
    "expr_from_dict",
    "infer_type",
    "lit",
    "rel_from_dict",
    "walk_expressions",
    "walk_relations",
]
