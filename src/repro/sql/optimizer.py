"""Plan-IR optimizer passes applied by the host databases.

These run on the Substrait-style IR *after* logical planning, which is
exactly where they benefit Sirius for free — the paper's drop-in
acceleration reuses the host's optimised plans:

* **projection pruning** — computes the columns each ReadRel actually
  feeds and sets its projection list, rewriting every ordinal reference
  downstream.  This is the dominant traffic saver for wide tables
  (lineitem has 16 columns; Q6 needs 4).
* **build-side selection** — for inner equi-joins, puts the side with the
  smaller estimated cardinality on the build (right) side.  The
  ClickHouse-style baseline skips this pass, which is one of the reasons
  its join-heavy queries degrade (§4.2's observation).
"""

from __future__ import annotations

from typing import Mapping

from ..plan import (
    AggregateCall,
    AggregateRel,
    Expression,
    FetchRel,
    FieldRef,
    FilterRel,
    JoinRel,
    Literal,
    Plan,
    ProjectRel,
    ReadRel,
    Relation,
    ScalarCall,
    SortRel,
    walk_expressions,
)

__all__ = [
    "FILTER_SELECTIVITY",
    "choose_build_sides",
    "estimate_rows",
    "optimize_plan",
    "prune_columns",
    "push_filters_into_scans",
]

# The fraction of rows one filter keeps, wherever a row count is estimated
# (here, and per pushed conjunct in the SQL planner's join ordering).
FILTER_SELECTIVITY = 0.25


def optimize_plan(plan: Plan, row_counts: Mapping[str, int] | None = None) -> Plan:
    """Apply all passes; returns a new validated plan."""
    rel = push_filters_into_scans(plan.root)
    rel = prune_columns(rel)
    rel = choose_build_sides(rel, row_counts or {})
    out = Plan(rel, plan.version)
    out.validate()
    return out


def push_filters_into_scans(rel: Relation) -> Relation:
    """Fuse ``Filter(Read)`` into the scan's pushed-down predicate.

    The scan then filters during the read itself — one fewer operator, and
    on the GPU one fewer intermediate materialisation.  Stacked filters
    fold into a conjunction.
    """
    new_inputs = [push_filters_into_scans(c) for c in rel.inputs]
    rel = rel.with_inputs(new_inputs) if rel.inputs else rel
    if isinstance(rel, FilterRel) and isinstance(rel.input_rel, ReadRel):
        read = rel.input_rel
        condition = rel.condition
        if read.filter_expr is not None:
            condition = ScalarCall("and", [read.filter_expr, condition])
        return ReadRel(read.table_name, read.base_schema, read.projection, condition)
    return rel


# -- projection pruning -------------------------------------------------------


def prune_columns(rel: Relation) -> Relation:
    """Push column requirements down to every ReadRel."""
    out_arity = len(rel.output_schema())
    pruned, _mapping = _prune(rel, set(range(out_arity)))
    return pruned


def _remap_expr(expr: Expression, mapping: dict[int, int]) -> Expression:
    if isinstance(expr, FieldRef):
        return FieldRef(mapping[expr.index])
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, ScalarCall):
        return ScalarCall(expr.func, [_remap_expr(a, mapping) for a in expr.args], expr.options)
    if isinstance(expr, AggregateCall):
        arg = None if expr.arg is None else _remap_expr(expr.arg, mapping)
        return AggregateCall(expr.op, arg, expr.distinct)
    raise TypeError(f"cannot remap {expr!r}")


def _expr_fields(expr: Expression) -> set[int]:
    return {n.index for n in walk_expressions(expr) if isinstance(n, FieldRef)}


def _prune(rel: Relation, required: set[int]) -> tuple[Relation, dict[int, int]]:
    """Prune ``rel`` to produce (at least) the ``required`` ordinals.

    Returns the rewritten relation and a mapping old-ordinal -> new-ordinal
    for the ordinals in ``required``.
    """
    if isinstance(rel, ReadRel):
        schema = rel.output_schema()
        needed = set(required)
        if rel.filter_expr is not None:
            needed |= _expr_fields(rel.filter_expr)
        keep = sorted(needed)
        if not keep:
            keep = [0] if len(schema) else []
        names = [schema.fields[i].name for i in keep]
        mapping = {old: new for new, old in enumerate(keep)}
        filt = _remap_expr(rel.filter_expr, mapping) if rel.filter_expr is not None else None
        # Projection names refer to the base schema.
        if rel.projection is not None:
            base_names = [rel.projection[i] for i in keep]
        else:
            base_names = names
        return ReadRel(rel.table_name, rel.base_schema, base_names, filt), mapping

    if isinstance(rel, FilterRel):
        needed = set(required) | _expr_fields(rel.condition)
        child, mapping = _prune(rel.input_rel, needed)
        cond = _remap_expr(rel.condition, mapping)
        return FilterRel(child, cond), {i: mapping[i] for i in required}

    if isinstance(rel, ProjectRel):
        keep = sorted(required) if required else ([0] if rel.expressions else [])
        child_needed: set[int] = set()
        for i in keep:
            child_needed |= _expr_fields(rel.expressions[i])
        child, mapping = _prune(rel.input_rel, child_needed)
        exprs = [_remap_expr(rel.expressions[i], mapping) for i in keep]
        names = [rel.names[i] for i in keep]
        out_map = {old: new for new, old in enumerate(keep)}
        return ProjectRel(child, exprs, names), out_map

    if isinstance(rel, JoinRel):
        left_arity = len(rel.left.output_schema())
        semi = rel.join_type in ("semi", "anti")
        left_needed = {i for i in required if i < left_arity}
        right_needed = (
            set() if semi else {i - left_arity for i in required if i >= left_arity}
        )
        left_needed |= set(rel.left_keys)
        right_needed |= set(rel.right_keys)
        if rel.post_filter is not None:
            for i in _expr_fields(rel.post_filter):
                if i < left_arity:
                    left_needed.add(i)
                else:
                    right_needed.add(i - left_arity)
        left, lmap = _prune(rel.left, left_needed)
        right, rmap = _prune(rel.right, right_needed)
        new_left_arity = len(left.output_schema())
        combined_map = dict(lmap)
        for old, new in rmap.items():
            combined_map[old + left_arity] = new + new_left_arity
        post = (
            _remap_expr(rel.post_filter, combined_map) if rel.post_filter is not None else None
        )
        out = JoinRel(
            left,
            right,
            rel.join_type,
            [lmap[k] for k in rel.left_keys],
            [rmap[k] for k in rel.right_keys],
            post,
        )
        if semi:
            return out, {i: lmap[i] for i in required}
        return out, {i: combined_map[i] for i in required}

    if isinstance(rel, AggregateRel):
        child_needed = set(rel.group_indices)
        for agg, _ in rel.measures:
            if agg.arg is not None:
                child_needed |= _expr_fields(agg.arg)
        child, mapping = _prune(rel.input_rel, child_needed)
        groups = [mapping[g] for g in rel.group_indices]
        measures = [
            (AggregateCall(a.op, None if a.arg is None else _remap_expr(a.arg, mapping), a.distinct), n)
            for a, n in rel.measures
        ]
        # Aggregate output ordinals are unchanged (groups then measures).
        return AggregateRel(child, groups, measures), {i: i for i in required}

    if isinstance(rel, SortRel):
        needed = set(required) | {i for i, _ in rel.sort_keys}
        child, mapping = _prune(rel.input_rel, needed)
        keys = [(mapping[i], asc) for i, asc in rel.sort_keys]
        return SortRel(child, keys), {i: mapping[i] for i in required}

    if isinstance(rel, FetchRel):
        child, mapping = _prune(rel.input_rel, required)
        return FetchRel(child, rel.offset, rel.count), mapping

    raise TypeError(f"cannot prune {type(rel).__name__}")


# -- build-side selection -------------------------------------------------------


def choose_build_sides(rel: Relation, row_counts: Mapping[str, int]) -> Relation:
    """Swap inner-join inputs so the smaller side builds the hash table."""
    new_inputs = [choose_build_sides(c, row_counts) for c in rel.inputs]
    rel = rel.with_inputs(new_inputs) if rel.inputs else rel
    if not isinstance(rel, JoinRel) or rel.join_type != "inner" or not rel.left_keys:
        return rel
    left_est = estimate_rows(rel.left, row_counts)
    right_est = estimate_rows(rel.right, row_counts)
    if right_est <= left_est:
        return rel
    # Swap: output ordinals change, so a re-ordering projection restores
    # the original column order for parents.
    left_arity = len(rel.left.output_schema())
    right_arity = len(rel.right.output_schema())
    swapped = JoinRel(
        rel.right, rel.left, "inner", rel.right_keys, rel.left_keys,
        _swap_post_filter(rel.post_filter, left_arity, right_arity),
    )
    exprs = [FieldRef(right_arity + i) for i in range(left_arity)]
    exprs += [FieldRef(i) for i in range(right_arity)]
    names = rel.output_schema().names()
    return ProjectRel(swapped, exprs, names)


def _swap_post_filter(post, left_arity: int, right_arity: int):
    if post is None:
        return None
    mapping = {}
    for i in range(left_arity):
        mapping[i] = right_arity + i
    for j in range(right_arity):
        mapping[left_arity + j] = j
    return _remap_expr(post, mapping)


def estimate_rows(rel: Relation, row_counts: Mapping[str, int]) -> float:
    """Estimated output rows of ``rel`` from base-table row counts."""
    if isinstance(rel, ReadRel):
        base = float(row_counts.get(rel.table_name, 1000.0))
        return base * (FILTER_SELECTIVITY if rel.filter_expr is not None else 1.0)
    if isinstance(rel, FilterRel):
        return estimate_rows(rel.input_rel, row_counts) * FILTER_SELECTIVITY
    if isinstance(rel, (ProjectRel, SortRel)):
        return estimate_rows(rel.inputs[0], row_counts)
    if isinstance(rel, AggregateRel):
        return max(estimate_rows(rel.input_rel, row_counts) * 0.1, 1.0)
    if isinstance(rel, FetchRel):
        est = estimate_rows(rel.input_rel, row_counts)
        return min(est, rel.count) if rel.count is not None else est
    if isinstance(rel, JoinRel):
        left = estimate_rows(rel.left, row_counts)
        right = estimate_rows(rel.right, row_counts)
        if not rel.left_keys:
            return left * right
        if rel.join_type in ("semi", "anti"):
            return left * 0.5
        return max(left, right)
    return 1000.0
