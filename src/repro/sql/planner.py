"""Binder + logical planner: SQL AST -> Substrait-style plan IR.

This is the host-database frontend layer the paper's composable-systems
argument builds on: hosts parse and optimise SQL, then hand the plan to
Sirius.  The planner covers all 22 TPC-H queries:

* join-graph construction from comma-joins and explicit JOIN ... ON, with
  **greedy join ordering** by estimated cardinality (disable via
  ``reorder_joins=False`` for the ClickHouse-style baseline);
* single-table predicate pushdown into scans;
* subquery **decorrelation**:
  - correlated EXISTS / NOT EXISTS -> semi / anti join (with residual
    non-equi correlated predicates as join post-filters),
  - IN (subquery) -> semi join (NOT IN -> anti join),
  - correlated scalar aggregate subqueries -> group-by on the correlation
    key + inner join (Q2, Q17, Q20),
  - uncorrelated scalar subqueries -> single-row cross join (Q11, Q15, Q22);
* aggregate extraction (GROUP BY / HAVING / aggregates in expressions),
  with ``avg`` left to the engine to decompose;
* DISTINCT via grouping, ORDER BY (aliases, output columns, ordinals),
  LIMIT, and CTEs (WITH ... AS).

There is one binder, ``_plan_expr``.  After aggregation it takes a
``bound`` map from the structural key of each expression already computed
(group keys, aggregate calls, a HAVING scalar subquery) to its column, so
every expression form binds the same way over an aggregate as over a
column: ``not (sum(a) > 0)``, ``cast(sum(a) as double)``, ``count(*) in
(1, 2)``, ``round(sum(a), -1)``, ``case when ... then null ...``.  One
output planner serves plain and aggregate selects: an ORDER BY term that
is not an output column (``order by sum(b)``, or an unselected group key)
rides through the sort as a hidden column.  Every search of an expression
for nodes of a kind goes through the one traversal, ``ast_nodes.nodes_of``.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..columnar import Schema
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
    PlanValidationError,
    ProjectRel,
    ReadRel,
    Relation,
    ScalarCall,
    SortRel,
)
from . import ast_nodes as A
from .optimizer import FILTER_SELECTIVITY, estimate_rows
from .parser import parse_sql

__all__ = ["SqlPlanner", "SqlPlanningError", "TableStats"]

_CMP_TO_FUNC = {"=": "eq", "<>": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


class SqlPlanningError(ValueError):
    """Semantic error while binding/planning a SQL statement."""


@dataclass
class TableStats:
    """Catalog metadata the planner needs per table.

    ``distinct`` maps column name -> number of distinct values; when
    present, join-output estimation uses the textbook
    ``|L| * |R| / max(ndv_l, ndv_r)`` formula, which is what keeps the
    greedy join order away from many-to-many blowups (e.g. joining
    customer to supplier on nationkey in Q5).
    """

    schema: Schema
    row_count: int
    distinct: dict[str, int] | None = None


@dataclass
class Scope:
    """Maps (qualifier, column) pairs to output ordinals of a relation."""

    columns: list[tuple[Optional[str], str]]
    parent: Optional["Scope"] = None

    def try_resolve(self, ref: A.ColumnRef) -> Optional[int]:
        matches = [
            i
            for i, (qual, name) in enumerate(self.columns)
            if name == ref.name and (ref.qualifier is None or ref.qualifier == qual)
        ]
        if len(matches) > 1 and ref.qualifier is None:
            raise SqlPlanningError(f"ambiguous column {ref.name!r}")
        return matches[0] if matches else None

    def resolve(self, ref: A.ColumnRef) -> int:
        idx = self.try_resolve(ref)
        if idx is None:
            raise SqlPlanningError(f"unknown column {ref!r}")
        return idx

    def is_outer(self, ref: A.ColumnRef) -> bool:
        """True if the ref resolves only in an enclosing query's scope."""
        if self.try_resolve(ref) is not None:
            return False
        scope = self.parent
        while scope is not None:
            if scope.try_resolve(ref) is not None:
                return True
            scope = scope.parent
        return False


@dataclass
class _FromNode:
    """One planned FROM item, before join-graph assembly."""

    relation: Relation
    scope_columns: list[tuple[Optional[str], str]]
    est_rows: float
    alias: Optional[str]
    # Position-in-node-scope -> estimated distinct count (capped by rows).
    distinct_by_pos: dict[int, float] = field(default_factory=dict)

    def scaled_distinct(self, pos: int) -> float:
        base = self.distinct_by_pos.get(pos, self.est_rows)
        return max(min(base, self.est_rows), 1.0)


class SqlPlanner:
    """Plans parsed SQL against a catalog of table schemas + stats."""

    def __init__(
        self,
        catalog: Mapping[str, TableStats],
        reorder_joins: bool = True,
        allow_correlated_subqueries: bool = True,
    ):
        """
        Args:
            catalog: Table name -> :class:`TableStats`.
            reorder_joins: Greedy cardinality-based join ordering (MiniDuck
                behaviour).  ``False`` keeps the FROM-clause order — the
                ClickHouse-style baseline.
            allow_correlated_subqueries: ``False`` raises on correlation,
                matching ClickHouse's documented limitation; the benchmark
                harness then supplies rewritten queries, as the paper did.
        """
        self.catalog = dict(catalog)
        self.reorder_joins = reorder_joins
        self.allow_correlated_subqueries = allow_correlated_subqueries

    # -- public API ---------------------------------------------------------

    def plan_sql(self, sql: str) -> Plan:
        stmt = parse_sql(sql)
        return self.plan_statement(stmt)

    def plan_statement(self, stmt: A.SelectStmt) -> Plan:
        ctes = {name: sub for name, sub in stmt.ctes.items()}
        rel, _ = self._plan_select(stmt, outer_scope=None, ctes=ctes)
        plan = Plan(rel)
        try:
            plan.validate()
        except PlanValidationError as exc:
            # Semantic defects (e.g. type mismatches the binder missed)
            # surface as planning errors, never structural ones.
            raise SqlPlanningError(str(exc)) from exc
        return plan

    # -- SELECT planning -----------------------------------------------------

    def _plan_select(
        self,
        stmt: A.SelectStmt,
        outer_scope: Optional[Scope],
        ctes: Mapping[str, A.SelectStmt],
    ) -> tuple[Relation, Scope]:
        if not stmt.from_tables:
            raise SqlPlanningError("SELECT without FROM is not supported")

        rel, scope = self._plan_from(stmt, outer_scope, ctes)
        bound = None
        if stmt.group_by or _contains_aggregate(stmt):
            rel, bound = self._plan_aggregate(stmt, rel, scope, ctes)
        return self._plan_output(stmt, rel, scope, bound)

    # -- FROM clause + WHERE classification -----------------------------------

    def _plan_from(self, stmt, outer_scope, ctes):
        nodes: list[_FromNode] = []
        for item in stmt.from_tables:
            nodes.append(self._plan_from_item(item, outer_scope, ctes))

        conjuncts = []
        for conj in _split_conjuncts(stmt.where):
            conjuncts.extend(_factor_or(conj))
        plain: list[A.SqlExpr] = []
        subquery_preds: list[A.SqlExpr] = []
        for conj in conjuncts:
            if _has_subquery(conj):
                subquery_preds.append(conj)
            else:
                plain.append(conj)

        # Push single-table conjuncts into their node; collect join edges.
        edges: list[tuple[int, int, A.SqlExpr, A.SqlExpr]] = []  # (ni, nj, expr_i, expr_j)
        residual: list[A.SqlExpr] = []
        for conj in plain:
            placed = self._try_place_conjunct(conj, nodes, edges, outer_scope)
            if not placed:
                residual.append(conj)

        # Explicit JOIN ... ON clauses extend the graph in order.
        rel, scope = self._assemble_joins(nodes, edges, residual, stmt, outer_scope, ctes)

        # Apply residual (multi-table / OR) predicates.
        residual_nonouter = []
        for conj in residual:
            if self._references_outer(conj, scope):
                residual_nonouter.append(conj)  # handled by caller (correlation)
                continue
            rel = FilterRel(rel, self._plan_expr(conj, scope))
        if residual_nonouter:
            raise SqlPlanningError(
                "correlated predicate outside a recognised decorrelation pattern"
            )

        # Subquery predicates (EXISTS / IN / scalar comparisons).
        for pred in subquery_preds:
            rel, scope = self._apply_subquery_predicate(pred, rel, scope, ctes)
        return rel, scope

    def _plan_from_item(self, item, outer_scope, ctes) -> _FromNode:
        if isinstance(item, A.SubqueryRef):
            sub_rel, sub_scope = self._plan_select(item.subquery, outer_scope, ctes)
            cols = [(item.alias, name) for _, name in sub_scope.columns]
            return _FromNode(sub_rel, cols, self._estimate_rows(sub_rel), item.alias)
        if isinstance(item, A.TableRef):
            if item.name in ctes:
                sub_rel, sub_scope = self._plan_select(ctes[item.name], None, ctes)
                alias = item.alias or item.name
                cols = [(alias, name) for _, name in sub_scope.columns]
                return _FromNode(sub_rel, cols, self._estimate_rows(sub_rel), alias)
            stats = self.catalog.get(item.name)
            if stats is None:
                raise SqlPlanningError(f"unknown table {item.name!r}")
            alias = item.alias or item.name
            rel = ReadRel(item.name, stats.schema)
            cols = [(alias, f.name) for f in stats.schema]
            distinct = {}
            if stats.distinct:
                for pos, f in enumerate(stats.schema):
                    if f.name in stats.distinct:
                        distinct[pos] = float(stats.distinct[f.name])
            return _FromNode(rel, cols, float(stats.row_count), alias, distinct)
        raise SqlPlanningError(f"unsupported FROM item {item!r}")

    def _estimate_rows(self, rel: Relation) -> float:
        """A derived table's or CTE's row estimate, from the one estimator
        the optimizer uses."""
        row_counts = {name: stats.row_count for name, stats in self.catalog.items()}
        return max(estimate_rows(rel, row_counts), 1.0)

    def _try_place_conjunct(self, conj, nodes, edges, outer_scope) -> bool:
        """Push a conjunct into one node, or record it as a join edge."""
        refs = A.nodes_of(conj, A.ColumnRef)
        owners = set()
        for ref in refs:
            owner = self._owning_node(ref, nodes)
            if owner is None:
                return False  # outer/unknown -> residual
            owners.add(owner)
        if len(owners) == 1:
            idx = owners.pop()
            node = nodes[idx]
            scope = Scope(node.scope_columns)
            node.relation = FilterRel(node.relation, self._plan_expr(conj, scope))
            node.est_rows = max(node.est_rows * FILTER_SELECTIVITY, 1.0)
            return True
        if (
            len(owners) == 2
            and isinstance(conj, A.BinaryOp)
            and conj.op == "="
        ):
            li = self._owning_side(conj.left, nodes)
            ri = self._owning_side(conj.right, nodes)
            if li is not None and ri is not None and li != ri:
                edges.append((li, ri, conj.left, conj.right))
                return True
        return False

    def _owning_node(self, ref: A.ColumnRef, nodes) -> Optional[int]:
        for i, node in enumerate(nodes):
            if Scope(node.scope_columns).try_resolve(ref) is not None:
                return i
        return None

    def _owning_side(self, expr, nodes) -> Optional[int]:
        refs = A.nodes_of(expr, A.ColumnRef)
        owners = {self._owning_node(r, nodes) for r in refs}
        owners.discard(None)
        return owners.pop() if len(owners) == 1 else None

    def _assemble_joins(self, nodes, edges, residual, stmt, outer_scope, ctes):
        """Greedy (or in-order) assembly of the join graph, then explicit
        JOIN clauses."""
        if len(nodes) == 1 and not stmt.joins:
            node = nodes[0]
            return node.relation, Scope(node.scope_columns, parent=outer_scope)

        remaining = list(range(len(nodes)))
        if self.reorder_joins:
            start = min(remaining, key=lambda i: nodes[i].est_rows)
        else:
            start = remaining[0]
        joined = {start}
        remaining.remove(start)
        rel = nodes[start].relation
        scope_cols = list(nodes[start].scope_columns)
        node_offsets = {start: 0}
        est = nodes[start].est_rows
        comp_distinct: dict[int, float] = dict(nodes[start].distinct_by_pos)
        used_edges: set[int] = set()

        def edge_join_estimate(node_idx, connecting) -> float:
            """Textbook output estimate: |C| * |N| / max ndv over the most
            selective connecting key; the max-rule when ndv is unknown."""
            node = nodes[node_idx]
            best_d = 0.0
            for e_idx in connecting:
                a, b, ea, eb = edges[e_idx]
                comp_expr, node_expr = (ea, eb) if a in joined else (eb, ea)
                comp_owner = a if a in joined else b
                d_comp = d_node = None
                cref = _single_ref(comp_expr)
                if cref is not None:
                    local = Scope(nodes[comp_owner].scope_columns).try_resolve(cref)
                    if local is not None:
                        pos = node_offsets[comp_owner] + local
                        raw = comp_distinct.get(pos)
                        if raw is not None:
                            d_comp = max(min(raw, est), 1.0)
                nref = _single_ref(node_expr)
                if nref is not None:
                    npos = Scope(node.scope_columns).try_resolve(nref)
                    if npos is not None and npos in node.distinct_by_pos:
                        d_node = node.scaled_distinct(npos)
                candidates_d = [d for d in (d_comp, d_node) if d is not None]
                if candidates_d:
                    best_d = max(best_d, max(candidates_d))
            if best_d <= 0:
                return max(est, node.est_rows)
            return max(est * node.est_rows / best_d, 1.0)

        while remaining:
            candidates = []
            for i in remaining:
                connecting = [
                    e_idx
                    for e_idx, (a, b, _, __) in enumerate(edges)
                    if e_idx not in used_edges and ((a in joined and b == i) or (b in joined and a == i))
                ]
                if connecting:
                    candidates.append((i, connecting))
            if not self.reorder_joins:
                # ClickHouse-style: join strictly in FROM order.  When the
                # next table shares no join edge with what has been joined
                # so far, this degenerates to a cross join — the Q9-never-
                # finishes behaviour the paper observed.
                next_i = remaining[0]
                chosen_edges = next(
                    (edges_list for i, edges_list in candidates if i == next_i), []
                )
                next_est = max(est, nodes[next_i].est_rows)
            elif not candidates:
                # Disconnected component: cross join the smallest node.
                next_i = min(remaining, key=lambda i: nodes[i].est_rows)
                chosen_edges = []
                next_est = est * nodes[next_i].est_rows
            else:
                next_i, chosen_edges, next_est = min(
                    (
                        (i, conn, edge_join_estimate(i, conn))
                        for i, conn in candidates
                    ),
                    key=lambda c: c[2],
                )

            node = nodes[next_i]
            left_scope = Scope(scope_cols)
            right_scope = Scope(node.scope_columns)
            left_keys, right_keys = [], []
            for e_idx in chosen_edges:
                a, b, ea, eb = edges[e_idx]
                if a in joined:
                    lexpr, rexpr = ea, eb
                else:
                    lexpr, rexpr = eb, ea
                lref, rref = _single_ref(lexpr), _single_ref(rexpr)
                if lref is None or rref is None:
                    continue  # complex equi-expressions become post filters
                left_keys.append(left_scope.resolve(lref))
                right_keys.append(right_scope.resolve(rref))
                used_edges.add(e_idx)
            rel = JoinRel(rel, node.relation, "inner", left_keys, right_keys)
            node_offsets[next_i] = len(scope_cols)
            for pos, d in node.distinct_by_pos.items():
                comp_distinct[len(scope_cols) + pos] = d
            scope_cols = scope_cols + node.scope_columns
            est = max(next_est, 1.0)
            joined.add(next_i)
            remaining.remove(next_i)

        scope = Scope(scope_cols, parent=outer_scope)

        # Unused edges (e.g. cycles in the join graph) become filters.
        for e_idx, (a, b, ea, eb) in enumerate(edges):
            if e_idx not in used_edges:
                cond = A.BinaryOp("=", ea, eb)
                rel = FilterRel(rel, self._plan_expr(cond, scope))

        # Explicit JOIN ... ON clauses (left outer joins, Q13).
        for clause in stmt.joins:
            rel, scope = self._apply_explicit_join(clause, rel, scope, outer_scope, ctes)
        return rel, scope

    def _apply_explicit_join(self, clause: A.JoinClause, rel, scope, outer_scope, ctes):
        node = self._plan_from_item(clause.right, outer_scope, ctes)
        right_scope = Scope(node.scope_columns)
        combined_cols = scope.columns + node.scope_columns
        combined = Scope(combined_cols, parent=outer_scope)
        left_keys, right_keys = [], []
        post = None
        right_rel = node.relation
        if clause.condition is not None:
            for conj in _split_conjuncts(clause.condition):
                lref = rref = None
                if isinstance(conj, A.BinaryOp) and conj.op == "=":
                    l0, r0 = _single_ref(conj.left), _single_ref(conj.right)
                    if l0 is not None and r0 is not None:
                        if scope.try_resolve(l0) is not None and right_scope.try_resolve(r0) is not None:
                            lref, rref = l0, r0
                        elif scope.try_resolve(r0) is not None and right_scope.try_resolve(l0) is not None:
                            lref, rref = r0, l0
                if lref is not None:
                    left_keys.append(scope.resolve(lref))
                    right_keys.append(right_scope.resolve(rref))
                elif clause.kind == "left":
                    # A residual ON conjunct of a LEFT join restricts which
                    # right rows *match*; unmatched left rows must still
                    # null-extend.  A post-join filter would wrongly drop
                    # them, so push right-only conjuncts below the join and
                    # reject anything referencing the left side.
                    refs = A.nodes_of(conj, A.ColumnRef)
                    if any(right_scope.try_resolve(r) is None for r in refs):
                        raise SqlPlanningError(
                            "LEFT JOIN ON conditions beyond equi-keys may only "
                            f"reference the right side: {conj!r}"
                        )
                    right_rel = FilterRel(right_rel, self._plan_expr(conj, right_scope))
                else:
                    planned = self._plan_expr(conj, combined)
                    post = planned if post is None else ScalarCall("and", [post, planned])
        join_type = "inner" if clause.kind == "cross" else clause.kind
        rel = JoinRel(rel, right_rel, join_type, left_keys, right_keys, post)
        return rel, combined

    # -- subquery predicates ------------------------------------------------------

    def _apply_subquery_predicate(self, pred, rel, scope, ctes):
        if isinstance(pred, A.ExistsExpr):
            return self._apply_exists(pred.subquery, pred.negated, rel, scope, ctes)
        if isinstance(pred, A.UnaryOp) and pred.op == "not" and isinstance(pred.operand, A.ExistsExpr):
            inner = pred.operand
            return self._apply_exists(inner.subquery, not inner.negated, rel, scope, ctes)
        if isinstance(pred, A.InExpr) and pred.subquery is not None:
            return self._apply_in_subquery(pred, rel, scope, ctes)
        if isinstance(pred, A.BinaryOp) and pred.op in _CMP_TO_FUNC:
            if isinstance(pred.right, A.ScalarSubquery):
                return self._apply_scalar_compare(
                    pred.left, _CMP_TO_FUNC[pred.op], pred.right.subquery, rel, scope, ctes
                )
            if isinstance(pred.left, A.ScalarSubquery):
                flipped = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}.get(
                    _CMP_TO_FUNC[pred.op], _CMP_TO_FUNC[pred.op]
                )
                return self._apply_scalar_compare(
                    pred.right, flipped, pred.left.subquery, rel, scope, ctes
                )
        raise SqlPlanningError(f"unsupported subquery predicate {pred!r}")

    def _split_correlation(self, sub: A.SelectStmt, inner_nodes_scope: Scope, outer_scope: Scope):
        """Partition a subquery's WHERE into inner conjuncts, correlation
        equalities (outer_ref, inner_expr), and residual correlated exprs."""
        inner_conjs: list[A.SqlExpr] = []
        corr_eq: list[tuple[A.ColumnRef, A.SqlExpr]] = []
        residual: list[A.SqlExpr] = []
        for conj in _split_conjuncts(sub.where):
            refs = A.nodes_of(conj, A.ColumnRef)
            outer_refs = [r for r in refs if inner_nodes_scope.try_resolve(r) is None]
            if not outer_refs:
                inner_conjs.append(conj)
                continue
            if not self.allow_correlated_subqueries:
                raise SqlPlanningError(
                    "correlated subqueries are not supported by this engine"
                )
            for r in outer_refs:
                if outer_scope.try_resolve(r) is None:
                    raise SqlPlanningError(f"unresolvable column {r!r} in subquery")
            matched = False
            if isinstance(conj, A.BinaryOp) and conj.op == "=":
                for outer_side, inner_side in ((conj.left, conj.right), (conj.right, conj.left)):
                    ref = _single_ref(outer_side)
                    inner_refs = A.nodes_of(inner_side, A.ColumnRef)
                    if (
                        ref is not None
                        and inner_nodes_scope.try_resolve(ref) is None
                        and outer_scope.try_resolve(ref) is not None
                        and inner_refs
                        and all(inner_nodes_scope.try_resolve(r) is not None for r in inner_refs)
                    ):
                        corr_eq.append((ref, inner_side))
                        matched = True
                        break
            if not matched:
                residual.append(conj)
        return inner_conjs, corr_eq, residual

    def _plan_subquery_base(self, sub: A.SelectStmt, outer_scope: Scope, ctes):
        """Plan a subquery's FROM + uncorrelated filters; returns the inner
        relation, its scope, and the correlation info."""
        nodes = [self._plan_from_item(item, None, ctes) for item in sub.from_tables]
        probe_scope = Scope([c for n in nodes for c in n.scope_columns])
        inner_conjs, corr_eq, residual = self._split_correlation(sub, probe_scope, outer_scope)

        # Re-plan the inner FROM with only the uncorrelated conjuncts.
        inner_where = _conjoin(inner_conjs)
        rebuilt = A.SelectStmt(
            items=sub.items,
            from_tables=sub.from_tables,
            joins=sub.joins,
            where=inner_where,
        )
        inner_rel, inner_scope = self._plan_from(rebuilt, None, ctes)
        return inner_rel, inner_scope, corr_eq, residual

    def _apply_exists(self, sub, negated, rel, scope, ctes):
        inner_rel, inner_scope, corr_eq, residual = self._plan_subquery_base(sub, scope, ctes)
        left_keys, right_keys, inner_rel, inner_scope = self._correlation_keys(
            corr_eq, inner_rel, inner_scope, scope
        )
        post = self._residual_post_filter(residual, scope, inner_scope)
        join_type = "anti" if negated else "semi"
        out = JoinRel(rel, inner_rel, join_type, left_keys, right_keys, post)
        return out, scope

    def _apply_in_subquery(self, pred: A.InExpr, rel, scope, ctes):
        sub = pred.subquery
        if len(sub.items) != 1:
            raise SqlPlanningError("IN subquery must select exactly one column")

        if sub.group_by or _contains_aggregate(sub) or sub.having is not None:
            # Aggregating IN subqueries (Q18) must be uncorrelated.
            inner_rel, inner_scope = self._plan_select(sub, None, ctes)
            corr_right_keys: list[int] = []
            corr_left_refs: list[A.ColumnRef] = []
        else:
            inner_rel, inner_scope, corr_eq, residual = self._plan_subquery_base(
                sub, scope, ctes
            )
            if residual:
                raise SqlPlanningError("non-equality correlation in IN subquery")
            value_expr = self._plan_expr(sub.items[0].expr, inner_scope)
            corr_exprs = [self._plan_expr(e, inner_scope) for _, e in corr_eq]
            names = ["__inval"] + [f"__corr{i}" for i in range(len(corr_exprs))]
            inner_rel = ProjectRel(inner_rel, [value_expr] + corr_exprs, names)
            inner_scope = Scope([(None, n) for n in names])
            corr_right_keys = list(range(1, 1 + len(corr_exprs)))
            corr_left_refs = [ref for ref, _ in corr_eq]

        # The IN operand: use its ordinal directly when it is a plain
        # column, otherwise append a computed key column to the left side
        # (internal names are positional; the scope is unaffected).
        operand = self._plan_expr(pred.operand, scope)
        if isinstance(operand, FieldRef):
            left_value_key = operand.index
        else:
            n = len(scope.columns)
            exprs = [FieldRef(i) for i in range(n)] + [operand]
            names = [f"c{i}" for i in range(n)] + ["__inop"]
            rel = ProjectRel(rel, exprs, names)
            scope = Scope(list(scope.columns) + [(None, "__inop")], parent=scope.parent)
            left_value_key = n

        left_keys = [left_value_key] + [scope.resolve(r) for r in corr_left_refs]
        right_keys = [0] + corr_right_keys
        join_type = "anti" if pred.negated else "semi"
        out = JoinRel(rel, inner_rel, join_type, left_keys, right_keys)
        return out, scope

    def _apply_scalar_compare(self, outer_expr, cmp_func, sub, rel, scope, ctes):
        """``outer_expr <cmp> (SELECT agg ... [WHERE corr])``."""
        if len(sub.items) != 1:
            raise SqlPlanningError("scalar subquery must select exactly one column")
        inner_rel, inner_scope, corr_eq, residual = self._plan_subquery_base(sub, scope, ctes)
        if residual:
            raise SqlPlanningError("non-equality correlation in scalar subquery")

        if corr_eq:
            # Correlated: aggregate grouped by the correlation keys, then
            # inner-join back on them (classic decorrelation).
            corr_exprs = [self._plan_expr(e, inner_scope) for _, e in corr_eq]
            aggs = A.nodes_of(sub.items[0].expr, A.AggCall)
            if not aggs:
                raise SqlPlanningError("correlated scalar subquery must aggregate")
            agg_rel, bound = self._aggregate(inner_rel, inner_scope, corr_exprs, "__ck", aggs)
            # The scalar value may be an expression over aggregates.
            value_expr = self._plan_expr(sub.items[0].expr, inner_scope, bound)
            value_rel = ProjectRel(
                agg_rel,
                [FieldRef(i) for i in range(len(corr_exprs))] + [value_expr],
                [f"__ck{i}" for i in range(len(corr_exprs))] + ["__scalar"],
            )
            left_keys = [scope.resolve(ref) for ref, _ in corr_eq]
            right_keys = list(range(len(corr_exprs)))
            joined = JoinRel(rel, value_rel, "inner", left_keys, right_keys)
            new_cols = scope.columns + [(None, f"__ck{i}") for i in range(len(corr_exprs))] + [
                (None, "__scalar")
            ]
            new_scope = Scope(new_cols, parent=scope.parent)
            value_ref = FieldRef(len(new_cols) - 1)
        else:
            # Uncorrelated: plan the whole scalar select; 1-row cross join.
            value_rel, value_scope = self._plan_select(sub, scope, ctes)
            joined = JoinRel(rel, value_rel, "inner", [], [])
            new_cols = scope.columns + [(None, f"__sq_{name}") for _, name in value_scope.columns]
            new_scope = Scope(new_cols, parent=scope.parent)
            value_ref = FieldRef(len(scope.columns))

        outer_planned = self._plan_expr(outer_expr, new_scope)
        condition = ScalarCall(cmp_func, [outer_planned, value_ref])
        out = FilterRel(joined, condition)
        return out, new_scope

    def _correlation_keys(self, corr_eq, inner_rel, inner_scope, outer_scope):
        """Resolve correlation equalities to join key ordinals, projecting
        computed inner expressions when needed."""
        left_keys, right_keys = [], []
        extra_exprs, extra_names = [], []
        for ref, inner_expr in corr_eq:
            left_keys.append(outer_scope.resolve(ref))
            iref = _single_ref(inner_expr)
            if iref is not None and inner_scope.try_resolve(iref) is not None:
                right_keys.append(inner_scope.resolve(iref))
            else:
                pos = len(inner_scope.columns) + len(extra_exprs)
                extra_exprs.append(self._plan_expr(inner_expr, inner_scope))
                extra_names.append(f"__corr{pos}")
                right_keys.append(pos)
        if extra_exprs:
            exprs = [FieldRef(i) for i in range(len(inner_scope.columns))] + extra_exprs
            names = [f"c{i}" for i in range(len(inner_scope.columns))] + extra_names
            inner_rel = ProjectRel(inner_rel, exprs, names)
            inner_scope = Scope(
                list(inner_scope.columns) + [(None, n) for n in extra_names]
            )
        return left_keys, right_keys, inner_rel, inner_scope

    def _residual_post_filter(self, residual, outer_scope, inner_scope):
        """Plan residual correlated predicates against the combined
        (outer ++ inner) schema for use as a semi/anti join post-filter."""
        if not residual:
            return None
        combined = Scope(
            list(outer_scope.columns) + list(inner_scope.columns), parent=outer_scope.parent
        )
        post = None
        for conj in residual:
            planned = self._plan_expr(conj, combined)
            post = planned if post is None else ScalarCall("and", [post, planned])
        return post

    def _references_outer(self, expr, scope: Scope) -> bool:
        return any(
            scope.try_resolve(r) is None and scope.is_outer(r)
            for r in A.nodes_of(expr, A.ColumnRef)
        )

    # -- aggregation ------------------------------------------------------------

    def _plan_aggregate(self, stmt, rel, scope, ctes):
        """GROUP BY, aggregates and HAVING.  Returns the relation the select
        list is projected from and the ``bound`` map that binds group keys,
        aggregate calls and a HAVING scalar subquery to its columns."""
        group_items = [self._resolve_group_item(g, stmt, scope) for g in stmt.group_by]
        group_exprs = [self._plan_expr(g, scope) for g in group_items]
        terms = [item.expr for item in stmt.items]
        if stmt.having is not None:
            terms.append(stmt.having)
        terms += [order.expr for order in stmt.order_by]
        aggs = [agg for term in terms for agg in A.nodes_of(term, A.AggCall)]
        rel, bound = self._aggregate(rel, scope, group_exprs, "__g", aggs)
        # Group keys take precedence over aggregates; a repeated key binds
        # to its last position.
        bound.update({repr(g): FieldRef(i) for i, g in enumerate(group_items)})

        if stmt.having is not None:
            subs = A.nodes_of(stmt.having, A.ScalarSubquery)
            if len(subs) > 1:
                raise SqlPlanningError("only one scalar subquery per HAVING is supported")
            if subs:
                # An uncorrelated scalar subquery (Q11): cross-join its
                # single row and bind the subquery to that column.
                value_rel, _ = self._plan_select(subs[0].subquery, None, ctes)
                bound[repr(subs[0])] = FieldRef(len(group_exprs) + len(aggs))
                rel = JoinRel(rel, value_rel, "inner", [], [])
            rel = FilterRel(rel, self._plan_expr(stmt.having, scope, bound))
        return rel, bound

    def _aggregate(self, rel, scope, keys, key_prefix, aggs):
        """Project ``keys`` then every aggregate's argument, aggregate by the
        keys, and bind each aggregate call to its first occurrence's
        measure.  A repeated aggregate still gets a measure of its own."""
        pre_exprs = list(keys)
        pre_names = [f"{key_prefix}{i}" for i in range(len(keys))]
        measures = []
        bound: dict[str, Expression] = {}
        for i, agg in enumerate(aggs):
            arg = None
            if agg.arg is not None:
                arg = FieldRef(len(pre_exprs))
                pre_exprs.append(self._plan_expr(agg.arg, scope))
                pre_names.append(f"__a{i}")
            op = agg.func
            if op == "count" and agg.distinct:
                op = "count_distinct"
            elif op == "count" and arg is None:
                op = "count_star"
            measures.append((AggregateCall(op, arg, agg.distinct), f"__m{i}"))
            bound.setdefault(repr(agg), FieldRef(len(keys) + i))
        if not pre_exprs:
            # count(*)-only queries: keep one column so the projected table
            # retains its row count (zero-column tables have no length).
            pre_exprs, pre_names = [FieldRef(0)], ["__rowcount_anchor"]
        pre = ProjectRel(rel, pre_exprs, pre_names)
        return AggregateRel(pre, list(range(len(keys))), measures), bound

    def _resolve_group_item(self, g, stmt, scope) -> A.SqlExpr:
        """Resolve GROUP BY ordinals (``GROUP BY 1``) and select-list
        aliases (``GROUP BY sz``) to the underlying select expression."""
        if isinstance(g, A.NumberLit):
            pos = int(g.value) - 1
            if not 0 <= pos < len(stmt.items):
                raise SqlPlanningError(f"GROUP BY position {g.value} out of range")
            item = stmt.items[pos]
            if isinstance(item.expr, A.Star):
                raise SqlPlanningError("GROUP BY ordinal cannot reference *")
            if A.nodes_of(item.expr, A.AggCall):
                raise SqlPlanningError("GROUP BY ordinal references an aggregate")
            return item.expr
        if (
            isinstance(g, A.ColumnRef)
            and g.qualifier is None
            and scope.try_resolve(g) is None
        ):
            for item in stmt.items:
                if item.alias == g.name and not isinstance(item.expr, A.Star):
                    if A.nodes_of(item.expr, A.AggCall):
                        raise SqlPlanningError(f"GROUP BY alias {g.name!r} is an aggregate")
                    return item.expr
        return g

    # -- select list, DISTINCT, ORDER BY, LIMIT ---------------------------------

    def _plan_output(self, stmt, rel, scope, bound):
        """Project the select list from ``rel``, then DISTINCT, ORDER BY and
        LIMIT.  An ORDER BY term that is not an output column (standard
        SQL allows it, also in an aggregate query) rides through the sort
        as a hidden column and a final projection drops it."""
        exprs, names, positions = [], [], []
        for i, item in enumerate(stmt.items):
            positions.append(None if isinstance(item.expr, A.Star) else len(exprs))
            if isinstance(item.expr, A.Star) and bound is None:
                qualifier = item.expr.qualifier
                matched = False
                for j, (qual, name) in enumerate(scope.columns):
                    if qualifier is not None and qual != qualifier:
                        continue
                    matched = True
                    exprs.append(FieldRef(j))
                    names.append(name)
                if qualifier is not None and not matched:
                    raise SqlPlanningError(f"unknown table alias {qualifier!r} in {qualifier}.*")
                continue
            exprs.append(self._plan_expr(item.expr, scope, bound))
            names.append(_item_name(item, i))
        names = _dedupe(names)
        out_scope = Scope([(None, n) for n in names], parent=scope.parent)

        keys, hidden = [], []
        for order in stmt.order_by:
            idx = _order_index(order.expr, stmt, names, positions)
            if idx is None:
                if stmt.distinct:
                    raise SqlPlanningError(
                        "ORDER BY on a column outside the select list is "
                        "incompatible with DISTINCT"
                    )
                if None in positions:
                    raise SqlPlanningError("SELECT * with hidden ORDER BY keys")
                idx = len(names) + len(hidden)
                hidden.append(self._plan_expr(order.expr, scope, bound))
            keys.append((idx, order.ascending))

        if hidden:
            hidden_names = [f"__ob{i}" for i in range(len(hidden))]
            rel = SortRel(ProjectRel(rel, exprs + hidden, names + hidden_names), keys)
            rel = ProjectRel(rel, [FieldRef(i) for i in range(len(names))], names)
        else:
            rel = ProjectRel(rel, exprs, names)
            if stmt.distinct:
                rel = AggregateRel(rel, list(range(len(names))), [])
            if keys:
                rel = SortRel(rel, keys)
        if stmt.limit is not None or stmt.offset:
            rel = FetchRel(rel, stmt.offset, stmt.limit)
        return rel, out_scope

    # -- scalar expressions -----------------------------------------------------

    def _plan_expr(self, expr: A.SqlExpr, scope: Scope, bound=None) -> Expression:
        """The one binder.  ``bound`` maps the structural key (``repr``) of
        an expression that is already computed — a group key, an aggregate
        call, a HAVING scalar subquery — to its column; under a ``bound``
        map a column outside it is an error."""
        if bound is not None:
            ref = bound.get(repr(expr))
            if ref is not None:
                return ref
        if isinstance(expr, A.ColumnRef):
            if bound is not None:
                raise SqlPlanningError(
                    f"column {expr!r} must appear in GROUP BY or inside an aggregate"
                )
            return FieldRef(scope.resolve(expr))
        if isinstance(expr, (A.NumberLit, A.StringLit, A.BoolLit)):
            return Literal(expr.value)
        if isinstance(expr, A.DateLit):
            return Literal(datetime.date.fromisoformat(expr.value))
        if isinstance(expr, A.NullLit):
            return Literal(None)
        if isinstance(expr, A.IntervalLit):
            raise SqlPlanningError("bare INTERVAL outside date arithmetic")
        if isinstance(expr, A.BinaryOp):
            return self._plan_binary(expr, scope, bound)
        if isinstance(expr, A.InExpr) and expr.subquery is not None:
            raise SqlPlanningError("IN subquery outside a top-level conjunct")
        if isinstance(expr, (A.ExistsExpr, A.ScalarSubquery)):
            raise SqlPlanningError("subquery outside a top-level WHERE conjunct")
        if isinstance(expr, A.AggCall):
            raise SqlPlanningError("aggregate in a non-aggregate context")
        args = [self._plan_expr(child, scope, bound) for child in expr.children()]
        if isinstance(expr, A.FuncCall):
            return _plan_func(expr, args)
        if isinstance(expr, A.UnaryOp):
            if expr.op == "not":
                return ScalarCall("not", args)
            operand = args[0]
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)
            return ScalarCall("negate", args)
        if isinstance(expr, A.BetweenExpr):
            inner = ScalarCall("between", args)
            return ScalarCall("not", [inner]) if expr.negated else inner
        if isinstance(expr, A.LikeExpr):
            func = "not_like" if expr.negated else "like"
            options = {"escape": expr.escape} if expr.escape is not None else None
            return ScalarCall(func, args + [Literal(expr.pattern)], options)
        if isinstance(expr, A.InExpr):
            return ScalarCall("not_in" if expr.negated else "in", args)
        if isinstance(expr, A.IsNullExpr):
            return ScalarCall("is_not_null" if expr.negated else "is_null", args)
        if isinstance(expr, A.CaseExpr):
            # Standard SQL: a missing ELSE branch yields NULL.
            return ScalarCall("case", args + [Literal(None)] if expr.default is None else args)
        if isinstance(expr, A.CastExpr):
            return ScalarCall("cast", args, {"to": expr.type_name})
        raise SqlPlanningError(f"unsupported expression {expr!r}")

    def _plan_binary(self, expr: A.BinaryOp, scope: Scope, bound) -> Expression:
        # Interval arithmetic folds to date literals (TPC-H always applies
        # intervals to literal dates).
        if expr.op in ("+", "-") and isinstance(expr.right, A.IntervalLit):
            base = self._plan_expr(expr.left, scope, bound)
            if isinstance(base, Literal) and isinstance(base.value, datetime.date):
                sign = 1 if expr.op == "+" else -1
                return Literal(_shift_date(base.value, expr.right, sign))
            func = "add" if expr.op == "+" else "subtract"
            if expr.right.unit != "day":
                raise SqlPlanningError("month/year intervals on columns are unsupported")
            return ScalarCall(func, [base, Literal(expr.right.amount)])
        if expr.op in ("and", "or") or expr.op in _CMP_TO_FUNC:
            return ScalarCall(
                _CMP_TO_FUNC.get(expr.op, expr.op),
                [self._plan_expr(expr.left, scope, bound), self._plan_expr(expr.right, scope, bound)],
            )
        func = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide", "%": "modulo"}.get(
            expr.op
        )
        if func is None:
            raise SqlPlanningError(f"unsupported operator {expr.op!r}")
        left = self._plan_expr(expr.left, scope, bound)
        right = self._plan_expr(expr.right, scope, bound)
        folded = _fold_constants(func, left, right)
        return folded if folded is not None else ScalarCall(func, [left, right])


# -- helpers --------------------------------------------------------------------


def _plan_func(expr: A.FuncCall, args: list[Expression]) -> Expression:
    """A scalar function call over its bound arguments."""
    if expr.name == "extract":
        part = expr.extra["part"]
        if part not in ("year", "month", "day"):
            raise SqlPlanningError(f"EXTRACT({part}) is not supported")
        return ScalarCall(f"extract_{part}", args)
    if expr.name == "substring":
        if not all(isinstance(bound_arg, Literal) for bound_arg in args[1:]):
            raise SqlPlanningError("substring bounds must be literals")
        return ScalarCall("substring", args)
    if expr.name == "coalesce":
        return ScalarCall("coalesce", args)
    if expr.name in ("upper", "lower", "length", "abs"):
        if len(args) != 1:
            raise SqlPlanningError(f"{expr.name}() takes exactly one argument")
        return ScalarCall(expr.name, args)
    if expr.name == "round":
        if len(args) not in (1, 2):
            raise SqlPlanningError("round() takes one or two arguments")
        if len(args) == 2 and not (
            isinstance(args[1], Literal) and isinstance(args[1].value, int)
        ):
            raise SqlPlanningError("round() digits must be an integer literal")
        return ScalarCall("round", args)
    if expr.name == "concat":
        if len(args) < 2:
            raise SqlPlanningError("concat() takes at least two arguments")
        return ScalarCall("concat", args)
    raise SqlPlanningError(f"unsupported function {expr.name!r}")


def _split_conjuncts(expr: Optional[A.SqlExpr]) -> list[A.SqlExpr]:
    if expr is None:
        return []
    if isinstance(expr, A.BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _factor_or(conj: A.SqlExpr) -> list[A.SqlExpr]:
    """Hoist conjuncts common to every branch of an OR (Q19's pattern).

    ``(p = l AND a) OR (p = l AND b)`` becomes ``p = l`` plus
    ``(a) OR (b)`` — without this, the shared join predicate stays trapped
    inside the OR and the join graph degenerates to a cross product.
    """
    if not (isinstance(conj, A.BinaryOp) and conj.op == "or"):
        return [conj]
    branches = _split_disjuncts(conj)
    branch_conjs = [_split_conjuncts(b) for b in branches]
    common_keys = set(repr(c) for c in branch_conjs[0])
    for bc in branch_conjs[1:]:
        common_keys &= {repr(c) for c in bc}
    if not common_keys:
        return [conj]
    hoisted = [c for c in branch_conjs[0] if repr(c) in common_keys]
    remainders = []
    for bc in branch_conjs:
        rest = [c for c in bc if repr(c) not in common_keys]
        if not rest:
            # One branch is fully covered by the hoisted conjuncts, so the
            # residual OR is a tautology: hoisted conjuncts alone suffice.
            return hoisted
        remainders.append(_conjoin(rest))
    out = list(hoisted)
    reduced = remainders[0]
    for r in remainders[1:]:
        reduced = A.BinaryOp("or", reduced, r)
    out.append(reduced)
    return out


def _split_disjuncts(expr: A.SqlExpr) -> list[A.SqlExpr]:
    if isinstance(expr, A.BinaryOp) and expr.op == "or":
        return _split_disjuncts(expr.left) + _split_disjuncts(expr.right)
    return [expr]


def _conjoin(conjuncts: list[A.SqlExpr]) -> Optional[A.SqlExpr]:
    if not conjuncts:
        return None
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = A.BinaryOp("and", out, c)
    return out


def _contains_aggregate(stmt: A.SelectStmt) -> bool:
    terms = [item.expr for item in stmt.items]
    if stmt.having is not None:
        terms.append(stmt.having)
    return any(A.nodes_of(term, A.AggCall) for term in terms)


def _has_subquery(expr: A.SqlExpr) -> bool:
    return any(
        not isinstance(node, A.InExpr) or node.subquery is not None
        for node in A.nodes_of(expr, (A.ExistsExpr, A.ScalarSubquery, A.InExpr))
    )


def _order_index(expr, stmt, names, positions) -> Optional[int]:
    """The output column an ORDER BY term names — an ordinal, an output
    name, or a select item's expression — or None when it names none.
    ``positions`` holds each select item's output column (None for ``*``)."""
    if isinstance(expr, A.NumberLit):
        pos = int(expr.value) - 1
        if not 0 <= pos < len(names):
            raise SqlPlanningError(f"ORDER BY position {expr.value} out of range")
        return pos
    if isinstance(expr, A.ColumnRef) and expr.name in names:
        return names.index(expr.name)
    key = repr(expr)
    for item, pos in zip(stmt.items, positions):
        if pos is not None and repr(item.expr) == key:
            return pos
    return None


def _single_ref(expr) -> Optional[A.ColumnRef]:
    return expr if isinstance(expr, A.ColumnRef) else None


def _item_name(item: A.SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, A.ColumnRef):
        return item.expr.name
    return f"col{position}"


def _dedupe(names: list[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for n in names:
        candidate = n
        suffix = 1
        while candidate in seen:
            candidate = f"{n}#{suffix}"
            suffix += 1
        seen.add(candidate)
        out.append(candidate)
    return out


def _fold_constants(func: str, left: Expression, right: Expression) -> Optional[Expression]:
    """Fold numeric literal arithmetic (1 - l_discount stays unfolded)."""
    if not (isinstance(left, Literal) and isinstance(right, Literal)):
        return None
    lv, rv = left.value, right.value
    if not isinstance(lv, (int, float)) or not isinstance(rv, (int, float)):
        return None
    if func == "add":
        return Literal(lv + rv)
    if func == "subtract":
        return Literal(lv - rv)
    if func == "multiply":
        return Literal(lv * rv)
    if func == "divide" and rv != 0:
        return Literal(lv / rv)
    return None


def _shift_date(base: datetime.date, interval: A.IntervalLit, sign: int) -> datetime.date:
    amount = interval.amount * sign
    if interval.unit == "day":
        return base + datetime.timedelta(days=amount)
    if interval.unit == "month":
        total = base.year * 12 + (base.month - 1) + amount
        year, month = divmod(total, 12)
        day = min(base.day, _days_in_month(year, month + 1))
        return datetime.date(year, month + 1, day)
    # year
    try:
        return base.replace(year=base.year + amount)
    except ValueError:  # Feb 29
        return base.replace(year=base.year + amount, day=28)


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    return (datetime.date(year, month + 1, 1) - datetime.timedelta(days=1)).day
