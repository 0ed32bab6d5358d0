"""Order-by sinks: full sort, fused top-N, and fetch (offset/limit)."""

from __future__ import annotations

from ...columnar import Schema, Table
from ...kernels import GTable, concat_gtables, gather_table, slice_table, sorted_order, top_n_order
from .base import Category, ExecutionContext, SinkOperator

__all__ = ["SortSink", "TopNSink", "FetchSink", "MaterializeSink"]


class _CollectingSink(SinkOperator):
    """Shared chunk-accumulation behaviour for order-by style breakers."""

    def __init__(self, input_schema: Schema):
        self.input_schema = input_schema

    def output_schema(self) -> Schema:
        return self.input_schema

    def consume(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> None:
        state.setdefault("chunks", []).append(chunk)

    def _collect(self, ctx: ExecutionContext, state: dict) -> GTable:
        chunks = state.get("chunks", [])
        if not chunks:
            return GTable.from_host(ctx.device, Table.empty(self.input_schema))
        return chunks[0] if len(chunks) == 1 else concat_gtables(chunks)


class _OrderingSink(_CollectingSink):
    """Order the collected rows (``_order``), then gather every column by
    that map in one region (:meth:`Device.fused_kernel`) reading the map
    and the columns once: one launch under fused billing, one gather
    kernel per column under per-part billing."""

    category = Category.ORDERBY

    def __init__(self, sort_keys, input_schema: Schema):
        super().__init__(input_schema)
        self.sort_keys = list(sort_keys)  # [(ordinal, ascending)]

    def finalize(self, ctx: ExecutionContext, state: dict) -> GTable:
        data = self._collect(ctx, state)
        if data.num_rows == 0:
            return data
        keys = [data.columns[i] for i, _ in self.sort_keys]
        order = self._order(keys, [a for _, a in self.sort_keys])
        with ctx.device.fused_kernel() as scope:
            out = gather_table(data, order)
            if scope.fused:
                scope.external(data.traffic_bytes + order.nbytes, out.traffic_bytes)
        return out


class SortSink(_OrderingSink):
    """Full ORDER BY."""

    def _order(self, keys, ascending):
        return sorted_order(keys, ascending)

    def describe(self) -> str:
        return f"Sort({self.sort_keys})"


class TopNSink(_OrderingSink):
    """ORDER BY + LIMIT fused into a top-N selection (cheaper than a full
    sort; the planner produces this when a FetchRel sits on a SortRel)."""

    def __init__(self, sort_keys, limit: int, offset: int, input_schema: Schema):
        super().__init__(sort_keys, input_schema)
        self.limit = int(limit)
        self.offset = int(offset)

    def _order(self, keys, ascending):
        return top_n_order(keys, ascending, self.offset + self.limit)[self.offset :]

    def describe(self) -> str:
        return f"TopN({self.sort_keys}, limit={self.limit})"


class FetchSink(_CollectingSink):
    """Bare OFFSET/LIMIT without ordering."""

    category = Category.OTHER

    def __init__(self, offset: int, count, input_schema: Schema):
        super().__init__(input_schema)
        self.offset = int(offset)
        self.count = count

    def finalize(self, ctx: ExecutionContext, state: dict) -> GTable:
        data = self._collect(ctx, state)
        count = data.num_rows if self.count is None else self.count
        return slice_table(data, self.offset, count)

    def describe(self) -> str:
        return f"Fetch(offset={self.offset}, count={self.count})"


class MaterializeSink(_CollectingSink):
    """Generic breaker output: concatenates chunks into one table (used for
    intermediate slots and as the final result collector)."""

    category = Category.OTHER

    def finalize(self, ctx: ExecutionContext, state: dict) -> GTable:
        return self._collect(ctx, state)

    def describe(self) -> str:
        return "Materialize"
