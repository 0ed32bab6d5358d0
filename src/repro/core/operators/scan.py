"""Table scan sources: cached base tables and intermediate slots."""

from __future__ import annotations

from ...columnar import Schema
from ...kernels import slice_table
from .base import Category, ExecutionContext, SourceOperator, UnsupportedFeatureError

__all__ = ["TableScan", "IntermediateSource"]


class TableScan(SourceOperator):
    """Scan a named base table from the buffer manager's caching region.

    Applies the ReadRel's column projection (free: column pruning is just
    buffer selection) and yields the table whole or in ``batch_rows``
    slices.  A pushed-down filter is not the scan's: the planner emits it
    as the :class:`~.streaming.FilterOp` stage that opens the pipeline's
    first region.
    """

    category = Category.OTHER

    def __init__(self, table_name: str, schema: Schema, projection):
        self.table_name = table_name
        self.schema = schema
        self.projection = list(projection) if projection is not None else None

    def output_schema(self) -> Schema:
        if self.projection is None:
            return self.schema
        return Schema([self.schema.field(n) for n in self.projection])

    def chunks(self, ctx: ExecutionContext):
        host = ctx.catalog.get(self.table_name)
        if host is None:
            raise UnsupportedFeatureError(f"table {self.table_name!r} not in catalog")
        gtable = ctx.buffer_manager.get_table(self.table_name, host)
        if self.projection is not None:
            gtable = gtable.select(self.projection)
        batch = ctx.batch_rows
        total = gtable.num_rows
        if batch is None or total <= batch:
            yield gtable
            return
        for start in range(0, total, batch):
            yield slice_table(gtable, start, min(batch, total - start))

    def describe(self) -> str:
        return f"TableScan({self.table_name})"


class IntermediateSource(SourceOperator):
    """Source reading a materialised intermediate produced by another
    pipeline (the output of a pipeline breaker)."""

    category = Category.OTHER

    def __init__(self, slot: str, schema: Schema):
        self.slot = slot
        self.schema = schema

    def output_schema(self) -> Schema:
        return self.schema

    def chunks(self, ctx: ExecutionContext):
        raise RuntimeError("IntermediateSource chunks are supplied by the executor")

    def describe(self) -> str:
        return f"Intermediate({self.slot})"
