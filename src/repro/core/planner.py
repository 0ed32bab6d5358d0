"""Physical planning: Substrait-style plans -> GPU pipelines.

Mirrors §3.2.2: the plan is divided into **pipelines** at pipeline
breakers (aggregations, sorts, and the build side of every hash join).
Each pipeline is ``source -> streaming operators -> sink``; sinks
materialise their output into named *slots* that downstream pipelines
read (as their source, or as a hash-join build table).

The compiler emits regions (Data Path Fusion) as it walks the plan.  A
maximal run of Filter/Project relations — a scan's pushed filter first,
when it has one — becomes the ``input_stages`` of the
:class:`~.operators.join.HashJoinProbe` it feeds when it opens the
pipeline (the run and the hash probe are one input region), the
``stages`` of the probe it follows (the probe's gathers, residual filter
and the run are one output region), or else one
:class:`~.operators.fused.FusedOp`.  ``Fetch(Sort(x))`` becomes a single
top-N sink; every Sort/Top-N sink gathers its output as a region, and
the aggregate and hash-build sinks finalize in regions.  How a region is
billed — as one launch, or as the launches its parts were — is the
device's choice (:meth:`~repro.gpu.device.Device.fused_kernel`), not the
plan's.  A plan holding an expression the device cannot lower fails to
compile with ``UnsupportedExpressionError`` before anything launches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..plan import (
    AggregateRel,
    FetchRel,
    FilterRel,
    JoinRel,
    Plan,
    ProjectRel,
    ReadRel,
    Relation,
    SortRel,
)
from .operators.aggregate import GlobalAggSink, GroupBySink
from .operators.base import SinkOperator, SourceOperator, StreamingOperator, UnsupportedFeatureError
from .operators.join import HashJoinBuildSink, HashJoinProbe
from .operators.fused import FusedOp
from .operators.scan import IntermediateSource, TableScan
from .operators.sort import FetchSink, MaterializeSink, SortSink, TopNSink
from .operators.streaming import FilterOp, ProjectOp

__all__ = ["Pipeline", "PhysicalPlan", "compile_plan"]

RESULT_SLOT = "__result__"


@dataclass
class Pipeline:
    """One schedulable unit: a source, streaming operators, and a sink."""

    pid: int
    source: SourceOperator
    operators: list[StreamingOperator]
    sink: SinkOperator
    output_slot: str
    dependencies: set[int] = field(default_factory=set)

    def used_slots(self) -> list[str]:
        """Slots this pipeline reads (its source and any probe builds)."""
        slots = []
        if isinstance(self.source, IntermediateSource):
            slots.append(self.source.slot)
        for op in self.operators:
            if isinstance(op, HashJoinProbe):
                slots.append(op.build_slot)
        return slots

    def describe(self) -> str:
        chain = " -> ".join(
            [self.source.describe()] + [o.describe() for o in self.operators] + [self.sink.describe()]
        )
        deps = f" (after {sorted(self.dependencies)})" if self.dependencies else ""
        return f"P{self.pid}: {chain} => {self.output_slot}{deps}"


@dataclass
class PhysicalPlan:
    """All pipelines of a query plus slot bookkeeping."""

    pipelines: list[Pipeline]
    final_slot: str

    def explain(self) -> str:
        return "\n".join(p.describe() for p in self.pipelines)

    def slot_consumers(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for p in self.pipelines:
            for slot in p.used_slots():
                counts[slot] = counts.get(slot, 0) + 1
        return counts


class _Compiler:
    def __init__(self):
        self.pipelines: list[Pipeline] = []
        self._next_slot = 0

    def fresh_slot(self, hint: str) -> str:
        self._next_slot += 1
        return f"{hint}_{self._next_slot}"

    def add_pipeline(self, source, operators, sink, slot, deps) -> int:
        pid = len(self.pipelines)
        self.pipelines.append(Pipeline(pid, source, _seal(operators), sink, slot, set(deps)))
        return pid

    # Returns (source, streaming_ops, deps) for a sub-tree that has NOT yet
    # been terminated by a sink.  The ops end in an open region: a probe
    # still waiting for its stages (a ``partial``) and the Filter/Project
    # stages after it, which ``_seal`` closes.
    def compile(self, rel: Relation):
        if isinstance(rel, ReadRel):
            scan = TableScan(rel.table_name, rel.base_schema, rel.projection)
            ops = []
            if rel.filter_expr is not None:
                ops.append(FilterOp(rel.filter_expr, scan.output_schema()))
            return scan, ops, set()

        if isinstance(rel, FilterRel):
            source, ops, deps = self.compile(rel.input_rel)
            ops.append(FilterOp(rel.condition, rel.input_rel.output_schema()))
            return source, ops, deps

        if isinstance(rel, ProjectRel):
            source, ops, deps = self.compile(rel.input_rel)
            ops.append(ProjectOp(rel.expressions, rel.names, rel.output_schema()))
            return source, ops, deps

        if isinstance(rel, JoinRel):
            # Build side (right) becomes its own pipeline.
            build_schema = rel.right.output_schema()
            build_slot = self.fresh_slot("build")
            b_source, b_ops, b_deps = self.compile(rel.right)
            build_sink = HashJoinBuildSink(build_slot, build_schema, rel.right_keys)
            build_pid = self.add_pipeline(b_source, b_ops, build_sink, build_slot, b_deps)
            # Probe side continues the current pipeline.  A run that opens
            # the pipeline is the probe's input; the probe opens a region
            # for the run that follows it.
            source, ops, deps = self.compile(rel.left)
            inputs = []
            if all(isinstance(op, (FilterOp, ProjectOp)) for op in ops):
                inputs, ops = ops, []
            _seal(ops).append(
                partial(
                    HashJoinProbe,
                    build_slot,
                    rel.join_type,
                    rel.left_keys,
                    rel.right_keys,
                    rel.left.output_schema(),
                    build_schema,
                    rel.post_filter,
                    input_stages=inputs,
                )
            )
            deps = deps | {build_pid}
            return source, ops, deps

        if isinstance(rel, AggregateRel):
            schema = rel.input_rel.output_schema()
            slot = self.fresh_slot("agg")
            if rel.group_indices:
                sink = GroupBySink(rel.group_indices, rel.measures, schema, slot)
            else:
                sink = GlobalAggSink(rel.measures, schema)
            return self._break(rel.input_rel, sink, slot)

        if isinstance(rel, FetchRel) and isinstance(rel.input_rel, SortRel):
            sort_rel = rel.input_rel
            if rel.count is None and rel.offset == 0:
                sink = SortSink(sort_rel.sort_keys, sort_rel.input_rel.output_schema())
                return self._break(sort_rel.input_rel, sink, self.fresh_slot("topn"))
            if rel.count is not None:
                sink = TopNSink(
                    sort_rel.sort_keys, rel.count, rel.offset, sort_rel.input_rel.output_schema()
                )
                return self._break(sort_rel.input_rel, sink, self.fresh_slot("topn"))
            # OFFSET without LIMIT: sort fully, then slice in a fetch sink.

        if isinstance(rel, SortRel):
            sink = SortSink(rel.sort_keys, rel.input_rel.output_schema())
            return self._break(rel.input_rel, sink, self.fresh_slot("sort"))

        if isinstance(rel, FetchRel):
            sink = FetchSink(rel.offset, rel.count, rel.input_rel.output_schema())
            return self._break(rel.input_rel, sink, self.fresh_slot("fetch"))

        raise UnsupportedFeatureError(f"no physical operator for {type(rel).__name__}")

    def _break(self, input_rel: Relation, sink: SinkOperator, slot: str):
        """Terminate the input sub-tree into ``sink``, which materialises
        ``slot``, and continue from that slot."""
        source, ops, deps = self.compile(input_rel)
        pid = self.add_pipeline(source, ops, sink, slot, deps)
        return IntermediateSource(slot, sink.output_schema()), [], {pid}


def _seal(ops: list) -> list:
    """Close the open region at the end of ``ops`` in place: the trailing
    Filter/Project stages become the stages of the probe they follow, or
    one :class:`FusedOp` (a run that opens the pipeline and feeds a probe
    never reaches here: it is that probe's ``input_stages``).  Raises
    ``UnsupportedExpressionError`` when a stage holds an expression the
    device cannot lower."""
    start = len(ops)
    while start and isinstance(ops[start - 1], (FilterOp, ProjectOp)):
        start -= 1
    stages = ops[start:]
    del ops[start:]
    if ops and isinstance(ops[-1], partial):
        ops[-1] = ops[-1](stages=stages)
    elif stages:
        ops.append(FusedOp(stages))
    return ops


def compile_plan(plan: Plan) -> PhysicalPlan:
    """Compile a validated plan into pipelines ending in a result slot.

    Every pipeline's streaming operators are regions: fused runs and
    probes carrying the runs before and after them.  The operator tree is
    the same whatever the engine's configuration: whether the run is
    out-of-core is decided at run time (``ExecutionContext.out_of_core``),
    and how its regions are billed by the device.  Raises
    ``UnsupportedExpressionError`` for an expression the device cannot
    lower.
    """
    compiler = _Compiler()
    source, ops, deps = compiler.compile(plan.root)
    compiler.add_pipeline(
        source, ops, MaterializeSink(plan.root.output_schema()), RESULT_SLOT, deps
    )
    return PhysicalPlan(compiler.pipelines, RESULT_SLOT)
