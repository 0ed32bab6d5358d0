"""The fused streaming operator: one kernel for a run of filters/projects.

The paper's premise is that GPU analytical engines are bound by data
movement, not arithmetic — every operator boundary in the unfused path
materialises a full intermediate ``GTable`` to HBM that the next operator
immediately reads back.  :class:`FusedOp` collapses a maximal run of
adjacent :class:`~.streaming.FilterOp`/:class:`~.streaming.ProjectOp`
stages into a single region that reads its input chunk once and writes
only the final result: all interior traffic is recorded but priced at
zero by :meth:`Device.fused_kernel`, and the whole run bills a single
kernel launch.  The run may start with a scan's pushed filter, which the
compiler emits as a ``FilterOp``; a run that follows a join probe is not
a ``FusedOp`` at all but runs inside the probe's own output region
(:class:`~.join.HashJoinProbe`).  Regions cannot nest, so both run the
one stage loop here, :func:`run_stages`, over a program built by
:func:`compile_stages`.

Expressions are compiled once at plan time (in the operator's
``__init__`` — the RR04 lint requires operators to be stateless after
construction) into
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

__all__ = ["FusedOp", "compile_stages", "run_stages"]


def compile_stages(stages) -> list:
    """Compile a run of Filter/Project stages into the program
    :func:`run_stages` executes; raises ``UnsupportedExpressionError`` for
    an expression the compiler cannot lower, ``TypeError`` for any other
    stage."""
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
    return program


def run_stages(program: list, table: GTable) -> GTable:
    """Run a compiled program over ``table`` inside the caller's open
    ``fused_kernel`` scope — the one loop every fused region runs."""
    for kind, payload in program:
        # Fresh CSE cache per stage: compaction/projection changes the
        # row space, invalidating cached positional columns.
        cache: dict = {}
        if kind == "filter":
            table = mask_table(table, payload(table, cache))
        else:
            projections, schema = payload
            table = GTable(schema, [p(table, cache) for p in projections], table.device)
    return table


class FusedOp(StreamingOperator):
    """A compiled run of Filter/Project stages executed as one kernel."""

    def __init__(self, stages):
        stages = list(stages)
        if not stages:
            raise ValueError("FusedOp needs at least one stage")
        self._program = compile_stages(stages)
        self.stages = stages
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
        bytes_in = chunk.traffic_bytes
        with ctx.device.fused_kernel() as scope:
            table = run_stages(self._program, chunk)
            scope.external(bytes_in, table.traffic_bytes)
        return table

    def describe(self) -> str:
        inner = " -> ".join(s.describe() for s in self.stages)
        return f"Fused[{inner}]"
