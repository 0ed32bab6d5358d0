"""The fused streaming operator: one kernel for a run of filters/projects.

The paper's premise is that GPU analytical engines are bound by data
movement, not arithmetic — every operator boundary in the unfused path
materialises a full intermediate ``GTable`` to HBM that the next operator
immediately reads back.  :class:`FusedOp` collapses a maximal run of
adjacent :class:`~.streaming.FilterOp`/:class:`~.streaming.ProjectOp`
stages into a single region that reads its input chunk once and writes
only the final result: all interior traffic is recorded but priced at
zero by :meth:`Device.fused_kernel`, and the whole run bills a single
kernel launch.

Expressions are compiled once at plan time (here, in ``__init__`` — the
RR04 lint requires operators to be stateless after construction) into
vectorized closures via :mod:`repro.core.expr_compile`, the evaluator the
unfused operators also run (compiling per chunk instead), so fused
results are bit-identical to the unfused pipeline.

Filter stages compact survivors eagerly (``mask_table``), which is the
short-circuit mask propagation: every later stage only touches rows that
survived every earlier predicate.  The CSE cache is keyed by expression
digest and valid for one table epoch — each stage produces a new chunk
object (compaction or projection), so the cache resets at every stage
boundary and sharing happens *within* a stage (across a projection's
expression list, or across a predicate tree's repeated subtrees).
"""

from __future__ import annotations

from ...columnar import Schema
from ...kernels import GTable, mask_table
from ..expr_compile import compile_predicate, compile_projection
from .base import Category, ExecutionContext, StreamingOperator
from .streaming import FilterOp, ProjectOp

__all__ = ["FusedOp"]


class FusedOp(StreamingOperator):
    """A compiled run of Filter/Project stages executed as one kernel."""

    def __init__(self, stages):
        stages = list(stages)
        if not stages:
            raise ValueError("FusedOp needs at least one stage")
        program = []
        for stage in stages:
            if isinstance(stage, FilterOp):
                program.append(("filter", compile_predicate(stage.condition)))
            elif isinstance(stage, ProjectOp):
                schema = stage.output_schema()
                projections = [
                    compile_projection(expr, dtype=field.dtype)
                    for expr, field in zip(stage.expressions, schema.fields)
                ]
                program.append(("project", (projections, schema)))
            else:
                raise TypeError(f"cannot fuse {type(stage).__name__}")
        self.stages = stages
        self._program = program
        # Attribute the fused region's time the way Figure 5 would: a run
        # containing any filtering work counts as filter time.
        self.category = (
            Category.FILTER
            if any(isinstance(s, FilterOp) for s in stages)
            else Category.OTHER
        )

    def output_schema(self) -> Schema:
        return self.stages[-1].output_schema()

    def process(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> GTable:
        device = ctx.device
        bytes_in = chunk.traffic_bytes
        with device.fused_kernel() as scope:
            table = chunk
            for kind, payload in self._program:
                # Fresh CSE cache per stage: compaction/projection changes
                # the row space, invalidating cached positional columns.
                cache: dict = {}
                if kind == "filter":
                    keep = payload(table, cache)
                    table = mask_table(table, keep)
                else:
                    projections, schema = payload
                    columns = [p(table, cache) for p in projections]
                    table = GTable(schema, columns, table.device)
            scope.external(bytes_in, table.traffic_bytes)
        return table

    def describe(self) -> str:
        inner = " -> ".join(s.describe() for s in self.stages)
        return f"Fused[{inner}]"
