"""Distributed plan fragmentation.

Splits an optimised single-node plan into **fragments** separated by
exchange boundaries (§3.2.4): each fragment executes locally on every
participating node; its output is transmitted (shuffle / broadcast /
merge) and consumed as a temporary table by the next fragment — which is
registered and later deregistered by the executor, per the paper.

Placement logic tracks *partitioning* through the tree:

* co-partitioned joins and aggregations grouped by the partition key run
  fully locally;
* otherwise joins shuffle the misplaced side(s) by the join key — or, in
  ``prefer_broadcast_joins`` mode (the ClickHouse-style distributed
  baseline's GLOBAL JOIN), broadcast the entire right side to every node,
  which is what makes its distributed Q3 collapse in Table 2;
* aggregations run in two phases (local partial, shuffle by group key,
  final re-aggregation), with ``avg`` decomposed into sum/count — the
  §3.4 extension the paper's distributed prototype lacked;
* top-level sorts/limits run locally, merge to the coordinator, and
  finish there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..columnar import Schema
from ..plan import (
    AggregateCall,
    AggregateRel,
    FetchRel,
    FieldRef,
    FilterRel,
    JoinRel,
    ProjectRel,
    ReadRel,
    Relation,
    ScalarCall,
    SortRel,
)

__all__ = ["Fragment", "ExchangeSpec", "DistributedPlanner", "DistributedUnsupportedError"]


class DistributedUnsupportedError(NotImplementedError):
    """The distributed mode does not cover this plan shape (the paper:
    "the current distributed mode offers limited SQL coverage")."""


@dataclass
class ExchangeSpec:
    """How a fragment's output moves between nodes."""

    exchange_id: int
    kind: str  # "shuffle" | "broadcast" | "merge"
    key_ordinals: list[int]
    schema: Schema
    # Whether the producing fragment streams its output (its root is a
    # streaming operator, so partitions can be sent while the fragment is
    # still computing).  Fragments rooted at a pipeline breaker (sort,
    # aggregate, fetch) materialise everything before the first byte can
    # move and are never overlappable.
    pipelined: bool = True

    @property
    def table_name(self) -> str:
        return f"__ex{self.exchange_id}"


@dataclass
class Fragment:
    """One locally-executable plan piece."""

    fragment_id: int
    plan: Relation
    output: Optional[ExchangeSpec]  # None => this fragment produces the result
    runs_on: str = "all"  # "all" | "coordinator"
    consumes: list[int] = field(default_factory=list)  # exchange ids read

    def describe(self) -> str:
        dest = self.output.kind if self.output else "result"
        return f"F{self.fragment_id} on {self.runs_on} -> {dest}"


def _consumed_exchanges(rel: Relation) -> list[int]:
    """Exchange ids a plan reads (ReadRels named ``__ex<N>``)."""
    out: list[int] = []
    if isinstance(rel, ReadRel):
        if rel.table_name.startswith("__ex"):
            out.append(int(rel.table_name[4:]))
        return out
    for child in rel.inputs:
        out.extend(_consumed_exchanges(child))
    return out


# Partitioning states threaded through planning.
_REPLICATED = ("replicated",)
_ARBITRARY = ("arbitrary",)
_COORDINATOR = ("coordinator",)  # data gathered onto the initiator only


def _hash_part(ordinals) -> tuple:
    return ("hash", tuple(ordinals))


class DistributedPlanner:
    """Fragments one plan for a cluster of ``num_nodes``."""

    def __init__(
        self,
        partition_key_of: Callable[[str], str | None],
        prefer_broadcast_joins: bool = False,
        predicate_transfer: bool = False,
        estimate_rows: Callable[[Relation], float] | None = None,
    ):
        """
        Args:
            partition_key_of: Table name -> its hash-partition column name,
                or None when the table is replicated on every node.
            prefer_broadcast_joins: Broadcast whole build sides instead of
                shuffling (the ClickHouse-style distributed baseline).
            predicate_transfer: Before shuffling both sides of a join,
                broadcast the smaller side's join keys and semi-join-reduce
                the larger side locally — the paper's §3.4 "predicate
                transfer" optimisation for exactly the Q3 shuffle
                bottleneck its Table 2 identifies.
            estimate_rows: Cardinality estimator used to pick which side
                the transfer reduces; required when ``predicate_transfer``.
        """
        self.partition_key_of = partition_key_of
        self.prefer_broadcast = prefer_broadcast_joins
        self.predicate_transfer = predicate_transfer
        self.estimate_rows = estimate_rows
        if predicate_transfer and estimate_rows is None:
            raise ValueError("predicate_transfer requires an estimate_rows callback")
        self.fragments: list[Fragment] = []
        self._next_exchange = 0

    # -- public -----------------------------------------------------------

    def plan(self, root: Relation) -> list[Fragment]:
        """Fragment ``root``; the last fragment yields the query result on
        the coordinator."""
        self.fragments = []
        self._next_exchange = 0
        rel, part = self._visit(root)
        if part in (_REPLICATED, _COORDINATOR):
            # Every node would return an identical copy (replicated), or
            # the data already lives on the initiator: run it once.
            self._emit(rel, None, runs_on="coordinator")
        else:
            # Merge partitions to the coordinator, identity final fragment.
            merged = self._cut(rel, "merge", [])
            self._emit(merged, None, runs_on="coordinator")
        return self.fragments

    # -- plumbing -----------------------------------------------------------

    def _emit(self, rel: Relation, output: Optional[ExchangeSpec], runs_on="all") -> None:
        frag = Fragment(len(self.fragments), rel, output, runs_on, _consumed_exchanges(rel))
        self.fragments.append(frag)

    def _cut(self, rel: Relation, kind: str, key_ordinals: list[int]) -> ReadRel:
        """Terminate ``rel`` into an exchange; continue from its temp table."""
        schema = rel.output_schema()
        pipelined = not isinstance(rel, (SortRel, AggregateRel, FetchRel))
        spec = ExchangeSpec(
            self._next_exchange, kind, list(key_ordinals), schema, pipelined=pipelined
        )
        self._next_exchange += 1
        frag = Fragment(len(self.fragments), rel, spec, "all", _consumed_exchanges(rel))
        self.fragments.append(frag)
        return ReadRel(spec.table_name, schema)

    # -- recursion -----------------------------------------------------------

    def _visit(self, rel: Relation):
        if isinstance(rel, ReadRel):
            key = self.partition_key_of(rel.table_name)
            if key is None:
                return rel, _REPLICATED
            out = rel.output_schema()
            if key in out:
                return rel, _hash_part([out.index_of(key)])
            return rel, _ARBITRARY

        if isinstance(rel, FilterRel):
            child, part = self._visit(rel.input_rel)
            return FilterRel(child, rel.condition), part

        if isinstance(rel, ProjectRel):
            child, part = self._visit(rel.input_rel)
            return ProjectRel(child, rel.expressions, rel.names), _project_partitioning(
                part, rel.expressions
            )

        if isinstance(rel, JoinRel):
            return self._visit_join(rel)

        if isinstance(rel, AggregateRel):
            return self._visit_aggregate(rel)

        if isinstance(rel, FetchRel) and isinstance(rel.input_rel, SortRel):
            sort_rel = rel.input_rel
            child, part = self._visit(sort_rel.input_rel)
            if part in (_REPLICATED, _COORDINATOR):
                return FetchRel(SortRel(child, sort_rel.sort_keys), rel.offset, rel.count), part
            # Local top-N, merge, final top-N on the coordinator.
            local = FetchRel(SortRel(child, sort_rel.sort_keys), 0, rel.offset + (rel.count or 0) or None)
            merged = self._cut(local, "merge", [])
            final = FetchRel(SortRel(merged, sort_rel.sort_keys), rel.offset, rel.count)
            return final, _COORDINATOR

        if isinstance(rel, SortRel):
            child, part = self._visit(rel.input_rel)
            if part in (_REPLICATED, _COORDINATOR):
                return SortRel(child, rel.sort_keys), part
            merged = self._cut(child, "merge", [])
            return SortRel(merged, rel.sort_keys), _COORDINATOR

        if isinstance(rel, FetchRel):
            child, part = self._visit(rel.input_rel)
            if part in (_REPLICATED, _COORDINATOR):
                return FetchRel(child, rel.offset, rel.count), part
            local = FetchRel(child, 0, rel.offset + (rel.count or 0) or None)
            merged = self._cut(local, "merge", [])
            return FetchRel(merged, rel.offset, rel.count), _COORDINATOR

        raise DistributedUnsupportedError(
            f"distributed mode does not support {type(rel).__name__}"
        )

    def _visit_join(self, rel: JoinRel):
        left, lpart = self._visit(rel.left)
        right, rpart = self._visit(rel.right)
        left_arity = len(left.output_schema())

        if lpart == _COORDINATOR or rpart == _COORDINATOR:
            # One side already lives on the initiator: pull the other side
            # there too and keep executing single-node.
            if rpart not in (_REPLICATED, _COORDINATOR):
                right = self._cut(right, "broadcast", [])
            if lpart not in (_REPLICATED, _COORDINATOR):
                left = self._cut(left, "merge", [])
            out = JoinRel(
                left, right, rel.join_type, rel.left_keys, rel.right_keys, rel.post_filter
            )
            return out, _COORDINATOR

        if not rel.left_keys:
            # Cross join: broadcast the right side.
            if rpart != _REPLICATED:
                right = self._cut(right, "broadcast", [])
            out = JoinRel(left, right, rel.join_type, [], [], rel.post_filter)
            return out, (lpart if lpart != _REPLICATED else _REPLICATED)

        co_located = (
            lpart == _hash_part([rel.left_keys[0]]) and rpart == _hash_part([rel.right_keys[0]])
        )
        if rpart == _REPLICATED:
            # Build side everywhere: always local.
            out = JoinRel(left, right, rel.join_type, rel.left_keys, rel.right_keys, rel.post_filter)
            part = lpart if lpart != _REPLICATED else _REPLICATED
            return out, part
        if lpart == _REPLICATED:
            # Probe side replicated, build side partitioned: local, output
            # follows the build side's distribution (semantically each
            # matched pair lives on the build row's node).
            out = JoinRel(left, right, rel.join_type, rel.left_keys, rel.right_keys, rel.post_filter)
            if rel.join_type in ("semi", "anti"):
                # Left (replicated) survives on every node - unsupported.
                raise DistributedUnsupportedError(
                    "semi/anti join with replicated probe side"
                )
            rmapped = _hash_part([left_arity + rel.right_keys[0]])
            return out, rmapped
        if co_located:
            out = JoinRel(left, right, rel.join_type, rel.left_keys, rel.right_keys, rel.post_filter)
            return out, _hash_part([rel.left_keys[0]])

        # Re-distribution required.
        if self.prefer_broadcast:
            # ClickHouse-style distributed join: no shuffle support.  The
            # build side is shipped in full to every node (GLOBAL JOIN) and
            # the probe side is pulled to the initiator, which executes the
            # join alone — distributed joins do not scale out, which is why
            # the paper's Table 2 shows its Q3 collapsing.
            right = self._cut(right, "broadcast", [])
            if lpart != _COORDINATOR:
                left = self._cut(left, "merge", [])
            out = JoinRel(left, right, rel.join_type, rel.left_keys, rel.right_keys, rel.post_filter)
            return out, _COORDINATOR
        shuffle_left = lpart != _hash_part([rel.left_keys[0]])
        shuffle_right = rpart != _hash_part([rel.right_keys[0]])
        if self.predicate_transfer and shuffle_left and shuffle_right:
            left, right = self._apply_predicate_transfer(rel, left, right)
        if shuffle_left:
            left = self._cut(left, "shuffle", [rel.left_keys[0]])
        if shuffle_right:
            right = self._cut(right, "shuffle", [rel.right_keys[0]])
        out = JoinRel(left, right, rel.join_type, rel.left_keys, rel.right_keys, rel.post_filter)
        return out, _hash_part([rel.left_keys[0]])

    def _apply_predicate_transfer(self, rel: JoinRel, left: Relation, right: Relation):
        """Broadcast the smaller side's distinct join keys; semi-join-reduce
        the larger side before it is shuffled.

        The reduced side then moves only the rows that can actually join —
        on Q3 this shrinks the lineitem-side shuffle by the selectivity of
        the orders-side filters, attacking the exchange bottleneck the
        paper's Table 2 breakdown identifies.
        """
        left_rows = self.estimate_rows(left)
        right_rows = self.estimate_rows(right)
        if right_rows <= left_rows:
            small, small_keys = right, rel.right_keys
            big, big_keys = left, rel.left_keys
        else:
            small, small_keys = left, rel.left_keys
            big, big_keys = right, rel.right_keys
        # Distinct keys of the small side (computed once per node on its
        # local data, then broadcast - the "transferred predicate").
        digest = AggregateRel(
            ProjectRel(
                small,
                [FieldRef(k) for k in small_keys],
                [f"__pt{i}" for i in range(len(small_keys))],
            ),
            list(range(len(small_keys))),
            [],
        )
        digest_read = self._cut(digest, "broadcast", [])
        reduced_big = JoinRel(
            big, digest_read, "semi", list(big_keys), list(range(len(small_keys)))
        )
        if right_rows <= left_rows:
            return reduced_big, right
        return left, reduced_big

    def _visit_aggregate(self, rel: AggregateRel):
        child, part = self._visit(rel.input_rel)

        if part in (_REPLICATED, _COORDINATOR):
            return AggregateRel(child, rel.group_indices, rel.measures), part

        n_groups = len(rel.group_indices)
        if n_groups and part[0] == "hash" and set(part[1]) <= set(rel.group_indices):
            # Groups are co-located: single-phase local aggregation.
            out = AggregateRel(child, rel.group_indices, rel.measures)
            new_part = _hash_part(
                [rel.group_indices.index(p) for p in part[1]]
            )
            return out, new_part

        if any(a.op == "count_distinct" or a.distinct for a, _ in rel.measures):
            # DISTINCT aggregates cannot be combined from partials: shuffle
            # raw rows by group key first, then aggregate once.
            if not n_groups:
                merged = self._cut(child, "merge", [])
                return AggregateRel(merged, [], rel.measures), _COORDINATOR
            shuffled = self._cut(child, "shuffle", [rel.group_indices[0]])
            return AggregateRel(shuffled, rel.group_indices, rel.measures), _ARBITRARY

        partial_measures, final_measures, finish_exprs, finish_names = _two_phase_measures(
            rel, n_groups
        )
        partial = AggregateRel(child, rel.group_indices, partial_measures)
        if n_groups:
            redistributed = self._cut(partial, "shuffle", [0])
        else:
            redistributed = self._cut(partial, "merge", [])
        final = AggregateRel(redistributed, list(range(n_groups)), final_measures)
        if finish_exprs is not None:
            final = ProjectRel(final, finish_exprs, finish_names)
        return final, (_hash_part([0]) if n_groups else _COORDINATOR)


def _project_partitioning(part, expressions):
    """Map a hash partitioning through a projection (bare refs only)."""
    if part in (_REPLICATED, _ARBITRARY, _COORDINATOR):
        return part
    _, ordinals = part
    mapped = []
    for ordinal in ordinals:
        hit = None
        for out_pos, expr in enumerate(expressions):
            if isinstance(expr, FieldRef) and expr.index == ordinal:
                hit = out_pos
                break
        if hit is None:
            return _ARBITRARY
        mapped.append(hit)
    return _hash_part(mapped)


_COMBINE = {"sum": "sum", "count": "sum", "count_star": "sum", "min": "min", "max": "max"}


def _two_phase_measures(rel: AggregateRel, n_groups: int):
    """Decompose measures into (partial, final) pairs; ``avg`` becomes
    sum+count partials fused back by a finishing projection."""
    partials: list[tuple[AggregateCall, str]] = []
    finals: list[tuple[AggregateCall, str]] = []
    needs_finish = any(a.op == "avg" for a, _ in rel.measures)
    finish_exprs = [FieldRef(i) for i in range(n_groups)] if needs_finish else None
    finish_names = [f"g{i}" for i in range(n_groups)] if needs_finish else None

    for agg, name in rel.measures:
        if agg.op == "avg":
            sum_pos = n_groups + len(partials)
            partials.append((AggregateCall("sum", agg.arg), f"__ps_{name}"))
            partials.append((AggregateCall("count", agg.arg), f"__pc_{name}"))
            finals.append(
                (AggregateCall("sum", FieldRef(sum_pos)), f"__fs_{name}")
            )
            finals.append(
                (AggregateCall("sum", FieldRef(sum_pos + 1)), f"__fc_{name}")
            )
            if finish_exprs is not None:
                fs = n_groups + len(finals) - 2
                finish_exprs.append(
                    ScalarCall("divide", [FieldRef(fs), FieldRef(fs + 1)])
                )
                finish_names.append(name)
            continue
        combine = _COMBINE.get(agg.op)
        if combine is None:
            raise DistributedUnsupportedError(
                f"aggregate {agg.op!r} is not distributable"
            )
        pos = n_groups + len(partials)
        partials.append((agg, f"__p_{name}"))
        finals.append((AggregateCall(combine, FieldRef(pos)), name))
        if finish_exprs is not None:
            finish_exprs.append(FieldRef(n_groups + len(finals) - 1))
            finish_names.append(name)
    return partials, finals, finish_exprs, finish_names
