"""Aggregation sinks: grouped (group-by) and global (reduction).

The planner decomposes ``avg`` into sum/count here (the same decomposition
the paper notes is missing from Sirius' *distributed* mode — our
distributed layer supplies it explicitly as a future-work extension).

Aggregate inputs that are expressions (e.g. ``sum(l_extendedprice * (1 -
l_discount))``) are compiled when the sink is built — a measure the
device cannot lower fails ``compile_plan`` — and run over the sink's
materialised input, so the aggregation kernels only ever see columns.

:class:`GroupBySink` consumes through the partition spool (:mod:`.spool`):
in an out-of-core run its input may scatter, and then each leaf is
aggregated and freed.

Both sinks finalize in regions (:meth:`Device.fused_kernel`): a
:class:`GroupBySink` one per held table or per scattered leaf, a
:class:`GlobalAggSink` one in all.  A region holds the concat of the held
chunks, the measure arguments, every aggregation kernel, the avg divides
and, for a global aggregate, the one-row write.  Under fused billing it
is one launch; per-part billing charges each of those kernels as it
launches.
"""

from __future__ import annotations

import numpy as np

from ...columnar import Field, Schema, Table
from ...kernels import AggSpec, GTable, binary_arith, concat_gtables, fill_constant, reduce_column
from ...plan import AggregateCall
from ...plan.expressions import aggregate_result_type
from ..expr_compile import compile_projection
from .base import Category, ExecutionContext, SinkOperator
from .spool import finish_held, scattered, spool_chunk, spooled_leaves

__all__ = ["GroupBySink", "GlobalAggSink"]


class GroupBySink(SinkOperator):
    """Grouped aggregation pipeline breaker.

    Input goes through the partition spool.  A sink that never scattered
    aggregates everything it held at once.  One that scattered aggregates
    leaf by leaf: the partition hash covers exactly the grouping keys
    (NULL being one key value), so every group lives wholly inside one
    leaf, aggregating leaves independently and concatenating the results
    is exact (including the avg = sum/count decomposition, which fuses per
    leaf), and the resident working set is one leaf.
    """

    category = Category.GROUPBY

    def __init__(self, group_indices, measures, input_schema: Schema, slot: str):
        """
        Args:
            group_indices: Ordinals of the grouping keys in the input.
            measures: ``[(AggregateCall, output_name), ...]``.
            input_schema: Schema of incoming chunks.
            slot: The sink's output slot, also its fragment-name prefix.
        """
        self.group_indices = list(group_indices)
        self.measures = list(measures)
        self.input_schema = input_schema
        self.slot = slot
        self._args = _compile_args(self.measures)

    def output_schema(self) -> Schema:
        fields = [self.input_schema.fields[i] for i in self.group_indices]
        for agg, name in self.measures:
            fields.append(Field(name, aggregate_result_type(agg, self.input_schema)))
        return Schema(fields)

    def consume(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> None:
        spool_chunk(ctx, chunk, self.group_indices, self.slot, state)

    def finalize(self, ctx: ExecutionContext, state: dict) -> GTable:
        if not scattered(state):
            return finish_held(ctx, state, self._finalize_held)
        results: list[GTable] = []
        for _path, leaf in spooled_leaves(ctx, self.group_indices, state):
            results.append(self._aggregate(ctx, [leaf]))
            leaf.free()
        if not results:
            return GTable.from_host(ctx.device, Table.empty(self.output_schema()))
        if len(results) == 1:
            return results[0]
        out = concat_gtables(results)
        for r in results:  # per-leaf aggregates are exclusively ours
            r.free()
        return out

    def _finalize_held(self, ctx: ExecutionContext, state: dict) -> GTable:
        chunks = state.get("chunks", [])
        if not chunks:
            return GTable.from_host(ctx.device, Table.empty(self.output_schema()))
        return self._aggregate(ctx, chunks)

    def _aggregate(self, ctx: ExecutionContext, chunks: list[GTable]) -> GTable:
        """Concatenate ``chunks`` (the whole held input, or one leaf of a
        scattered one) and aggregate them, as one region."""
        with ctx.device.fused_kernel() as scope:
            data = chunks[0] if len(chunks) == 1 else concat_gtables(chunks)
            out = self._aggregate_table(ctx, data)
            if scope.fused:
                scope.external(sum(c.traffic_bytes for c in chunks), out.traffic_bytes)
        return out

    def _aggregate_table(self, ctx: ExecutionContext, data: GTable) -> GTable:
        """Run the grouped aggregation over one materialised table (the
        whole held input, or one leaf of a scattered one)."""
        keys = [data.columns[i] for i in self.group_indices]
        specs: list[AggSpec] = []
        for (agg, name), arg in zip(self.measures, self._args):
            arg_col = arg(data, None) if arg is not None else None
            if agg.op == "avg":
                # Decompose: avg = sum / count, fused back after the kernel.
                specs.append(AggSpec("sum", arg_col, f"__avg_sum_{name}"))
                specs.append(AggSpec("count", arg_col, f"__avg_cnt_{name}"))
                continue
            op = agg.op
            if op == "count" and agg.distinct:
                op = "count_distinct"
            if op == "count" and arg_col is None:
                op = "count_star"
            specs.append(AggSpec(op, arg_col, name))

        impl = ctx.registry.get("groupby")
        raw = impl(keys, specs)

        # Reassemble in declared measure order, fusing avg columns.
        out_schema = self.output_schema()
        n_keys = len(self.group_indices)
        out_cols = list(raw.columns[:n_keys])
        raw_pos = n_keys
        for agg, name in self.measures:
            if agg.op == "avg":
                sums = raw.columns[raw_pos]
                counts = raw.columns[raw_pos + 1]
                out_cols.append(binary_arith("divide", sums, counts))
                raw_pos += 2
            else:
                out_cols.append(raw.columns[raw_pos])
                raw_pos += 1
        return GTable(out_schema, out_cols, ctx.device)

    def describe(self) -> str:
        return f"GroupBy(keys={self.group_indices}, measures={[n for _, n in self.measures]})"


class GlobalAggSink(SinkOperator):
    """Global reductions (no GROUP BY) - always produce exactly one row."""

    category = Category.AGGREGATION

    def __init__(self, measures, input_schema: Schema):
        self.measures = list(measures)
        self.input_schema = input_schema
        self._args = _compile_args(self.measures)

    def output_schema(self) -> Schema:
        return Schema(
            [
                Field(name, aggregate_result_type(agg, self.input_schema))
                for agg, name in self.measures
            ]
        )

    def consume(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> None:
        state.setdefault("chunks", []).append(chunk)

    def finalize(self, ctx: ExecutionContext, state: dict) -> GTable:
        chunks = state.get("chunks", [])
        out_schema = self.output_schema()
        with ctx.device.fused_kernel() as scope:
            if not chunks:
                data = None
            else:
                data = chunks[0] if len(chunks) == 1 else concat_gtables(chunks)
            columns = []
            for (agg, name), arg, field in zip(self.measures, self._args, out_schema):
                value = self._reduce(agg, arg, data)
                if value is None:
                    col = fill_constant(ctx.device, 1, 0, field.dtype)
                    col.validity = ctx.device.new_buffer(np.array([False]))
                    columns.append(col)
                else:
                    columns.append(fill_constant(ctx.device, 1, value, field.dtype))
            out = GTable(out_schema, columns, ctx.device)
            if scope.fused:
                scope.external(sum(c.traffic_bytes for c in chunks), out.traffic_bytes)
        return out

    def _reduce(self, agg: AggregateCall, arg, data: GTable | None):
        if data is None or data.num_rows == 0:
            return 0 if agg.op in ("count", "count_star") else None
        if agg.op == "count_star":
            return data.num_rows
        col = arg(data, None)
        op = agg.op
        if op == "count" and agg.distinct:
            op = "count_distinct"
        if op == "avg":
            op = "mean"
        return reduce_column(col, op)

    def describe(self) -> str:
        return f"GlobalAgg({[n for _, n in self.measures]})"


def _compile_args(measures) -> list:
    """Each measure's argument lowered once (``None`` for ``count(*)``),
    called per table without a CSE cache."""
    return [
        compile_projection(agg.arg) if agg.arg is not None else None for agg, _name in measures
    ]
