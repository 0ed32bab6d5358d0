"""The fused streaming operator: one region for a run of filters/projects.

The paper's premise is that GPU analytical engines are bound by data
movement, not arithmetic — every operator boundary in a one-kernel-per-
step engine materialises a full intermediate ``GTable`` to HBM that the
next operator immediately reads back.  The compiler
(:mod:`repro.core.planner`) emits every maximal run of adjacent
:class:`~.streaming.FilterOp`/:class:`~.streaming.ProjectOp` stages as a
single region (:meth:`Device.fused_kernel`): a :class:`FusedOp`, or a
join probe's own region (:class:`~.join.HashJoinProbe`) — its input
region, with the hash-probe kernel, for a run that opens the pipeline
and feeds the probe, its output region for a run that follows it.  The
device's billing decides what a region costs.  Under fused billing
(Data Path Fusion) the region reads its input chunk once and writes only
the final result: interior traffic is priced at zero and the run bills
one launch.  Under per-part billing, the paper's Sirius, each stage's
kernels are charged as they launch, under the stage's own Figure-5
category, as the separate Filter and Project operators were.  The run
may start with a scan's pushed filter, which the compiler emits as a
``FilterOp``.  Regions cannot nest, so both kinds run the one stage loop
here, :func:`run_stages`, over a program built by :func:`compile_stages`.

Expressions are compiled once at plan time (in the region's
``__init__`` — the RR04 lint requires operators to be stateless after
construction) into vectorized closures via
:mod:`repro.core.expr_compile`, the engine's only evaluator, so results
are bit-identical under either billing, and a plan holding an expression
the device cannot lower fails to compile before anything launches.

Filter stages compact survivors eagerly (``mask_table``), which is the
short-circuit mask propagation: every later stage only touches rows that
survived every earlier predicate.  Under fused billing a CSE cache, keyed
by expression digest, is valid for one table epoch — each stage produces
a new chunk object (compaction or projection), so the cache resets at
every stage boundary and sharing happens *within* a stage (across a
projection's expression list, or across a predicate tree's repeated
subtrees).  Per-part billing shares nothing: a repeated subtree launches
its kernels every time it occurs, as it did in separate operators.
"""

from __future__ import annotations

from ...columnar import Schema
from ...kernels import GTable, mask_table
from ..expr_compile import compile_predicate, compile_projection
from .base import Category, ExecutionContext, StreamingOperator, dispose_chunk
from .streaming import FilterOp, ProjectOp

__all__ = ["FusedOp", "compile_stages", "run_region", "run_stages"]


def compile_stages(stages, schema: Schema | None = None) -> list:
    """Compile a run of Filter/Project stages into the program
    :func:`run_stages` executes: one ``(category, stage)`` pair per stage,
    ``stage(table, cache)`` returning the stage's output table.

    ``schema`` is what feeds the first stage, when the region knows it.
    Raises ``UnsupportedExpressionError`` for an expression the compiler
    cannot lower, ``ValueError`` when a filter declares an input other than
    what its predecessor produces, ``TypeError`` for any other stage."""
    program = []
    for stage in stages:
        if isinstance(stage, FilterOp):
            if schema is not None and stage.input_schema.dtypes() != schema.dtypes():
                raise ValueError(
                    f"stage {len(program)} declares input {stage.input_schema.dtypes()} "
                    f"but its predecessor produces {schema.dtypes()}"
                )
            program.append((stage.category, _filter(compile_predicate(stage.condition))))
        elif isinstance(stage, ProjectOp):
            projections = [
                compile_projection(expr, dtype=field.dtype)
                for expr, field in zip(stage.expressions, stage.output_schema().fields)
            ]
            program.append((stage.category, _project(projections, stage.output_schema())))
        else:
            raise TypeError(f"cannot fuse {type(stage).__name__}")
        schema = stage.output_schema()
    return program


def _filter(predicate):
    return lambda table, cache: mask_table(table, predicate(table, cache))


def _project(projections, schema: Schema):
    return lambda table, cache: GTable(schema, [p(table, cache) for p in projections], table.device)


def run_stages(ctx: ExecutionContext, scope, program: list, table: GTable, slots: dict) -> GTable:
    """Run a compiled program over ``table`` inside the caller's open
    region ``scope`` — the one loop every region runs.

    Each stage runs under its own category.  Under fused billing it gets a
    fresh CSE cache (compaction or projection changes the row space,
    invalidating cached positional columns); per-part billing shares
    nothing, as the separate Filter/Project operators did.  Out-of-core,
    each stage's input is freed once its output exists, under either
    billing.
    """
    clock = ctx.device.clock
    for category, stage in program:
        with clock.attributed(category):
            out = stage(table, {} if scope.fused else None)
        if ctx.out_of_core and out is not table:
            dispose_chunk(ctx, table, slots, successor=out)
        table = out
    return table


def run_region(ctx: ExecutionContext, program: list, table: GTable, slots: dict) -> GTable:
    """Run ``program`` over ``table`` as one region of its own."""
    with ctx.device.fused_kernel() as scope:
        out = run_stages(ctx, scope, program, table, slots)
        if scope.fused:
            scope.external(table.traffic_bytes, out.traffic_bytes)
    return out


class FusedOp(StreamingOperator):
    """A compiled run of Filter/Project stages executed as one kernel."""

    def __init__(self, stages):
        stages = list(stages)
        if not stages:
            raise ValueError("FusedOp needs at least one stage")
        self._program = compile_stages(stages)
        self.stages = stages
        # A region with any filtering work bills as filter time (Figure 5).
        filters = any(isinstance(s, FilterOp) for s in stages)
        self.category = Category.FILTER if filters else Category.OTHER

    def output_schema(self) -> Schema:
        return self.stages[-1].output_schema()

    def process(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> GTable:
        return run_region(ctx, self._program, chunk, state["slots"])

    def describe(self) -> str:
        inner = " -> ".join(s.describe() for s in self.stages)
        return f"Fused[{inner}]"
