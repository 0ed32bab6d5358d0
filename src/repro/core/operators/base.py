"""Physical operator base classes and the execution context.

Sirius uses a **push-based** model inside each pipeline (§3.2.2): the
executor owns all state and pushes data into *stateless* operators.  An
operator is therefore a small object holding only its parameters; any
mutable execution state (hash tables, accumulated chunks) lives in the
executor's pipeline state, keyed by slot ids.

Each operator declares a ``category`` — the bucket its simulated time is
attributed to.  These categories are exactly the Figure 5 legend: join,
group-by, filter, aggregation, order-by, other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ...columnar import Schema, Table
from ...gpu.device import Device
from ...kernels import GTable
from ...obs import NULL_TRACER
from ..buffer_manager import BufferManager

__all__ = [
    "Category",
    "ExecutionContext",
    "PhysicalOperator",
    "StreamingOperator",
    "SinkOperator",
    "SourceOperator",
    "UnsupportedFeatureError",
    "ChunkStream",
    "dispose_chunk",
]


class ChunkStream:
    """Lazy sequence of output chunks from a one-to-many streaming operator.

    A :class:`StreamingOperator` may return one of these instead of a
    single ``GTable`` (e.g. a partitioned probe emitting per-leaf join
    outputs).  The executor drains it chunk by chunk, pushing each chunk
    through the remaining operators and the sink *before* pulling the
    next, so at most one emitted chunk is resident at a time — this is
    what keeps out-of-core probe pipelines from materialising their whole
    output.  The operator's generator owns disposal of its input chunk.
    """

    __slots__ = ("chunks",)

    def __init__(self, chunks):
        self.chunks = chunks


def dispose_chunk(
    ctx: "ExecutionContext", chunk: GTable, slots: dict, successor: GTable | None = None
) -> None:
    """Out-of-core chunk disposal: free ``chunk``'s buffers once nothing
    carries them forward.

    Streaming operators may pass column objects through by reference (a
    bare column projection returns the input column), so a buffer is freed
    only when it is absent from ``successor`` — the chunk the operator
    produced, ``None`` when the operator kept copies only, as the
    partition spool and the partitioned probe do — AND not owned by the
    buffer-manager cache, a live fragment, or a materialised slot.  Each
    buffer flows through the chunk chain once and ``DeviceBuffer.free`` is
    idempotent; without this protocol dead intermediates accumulate in the
    processing pool for the whole query, which is exactly what an over-HBM
    working set cannot afford.
    """
    keep = {id(c) for c in ctx.buffer_manager.protected_columns()}
    if successor is not None:
        keep.update(id(c) for c in successor.columns)
    for table in slots.values():
        if isinstance(table, GTable):
            keep.update(id(c) for c in table.columns)
    for col in chunk.columns:
        if id(col) not in keep:
            col.free()


class Category:
    """Time-attribution buckets (the paper's Figure 5 legend)."""

    JOIN = "join"
    GROUPBY = "groupby"
    FILTER = "filter"
    AGGREGATION = "aggregation"
    ORDERBY = "orderby"
    OTHER = "other"

    ALL = (JOIN, GROUPBY, FILTER, AGGREGATION, ORDERBY, OTHER)


class UnsupportedFeatureError(NotImplementedError):
    """Raised when a plan needs something the GPU engine does not support;
    the Sirius API catches it and falls back to the host engine (§3.2.2)."""


@dataclass
class ExecutionContext:
    """Everything operators need at runtime.

    Attributes:
        device: The execution device (GPU for Sirius, CPU for baselines
            reusing this executor).
        buffer_manager: Caching region + format conversion.
        catalog: Host tables by name (the host database's storage).
        registry: Operator-implementation registry (libcudf vs custom).
        batch_rows: If set, sources push data in batches of this many rows
            (the out-of-core/pipelined execution extension of §3.4).
        out_of_core: The run may spill operator state.  Keyed sinks
            scatter their input to spillable fragments once it outgrows the
            spool's hold (:mod:`.spool`), a sink that never scattered
            disposes the chunks it held, and the executor frees each dead
            intermediate chunk as soon as the next operator has consumed it.
            Off, every sink holds its input resident; the operator tree is
            the same either way.
        tracer: Observability sink for spans/metrics; the no-op
            :data:`~repro.obs.NULL_TRACER` by default, so fault-free
            untraced execution is byte-identical.
    """

    device: Device
    buffer_manager: BufferManager
    catalog: Mapping[str, Table]
    registry: "OperatorRegistry"
    batch_rows: int | None = None
    out_of_core: bool = False
    tracer: object = NULL_TRACER


class PhysicalOperator:
    """Base physical operator; parameters only, no execution state."""

    category: str = Category.OTHER

    def output_schema(self) -> Schema:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return self.describe()


class SourceOperator(PhysicalOperator):
    """Produces input chunks for a pipeline."""

    def chunks(self, ctx: ExecutionContext):
        """Yield GTable chunks."""
        raise NotImplementedError


class StreamingOperator(PhysicalOperator):
    """Transforms one chunk into another without cross-chunk state."""

    def process(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> GTable | None:
        """Transform a chunk; may return ``None`` to drop it entirely."""
        raise NotImplementedError


class SinkOperator(PhysicalOperator):
    """Pipeline terminator: consumes all chunks, then finalises."""

    def consume(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> None:
        raise NotImplementedError

    def finalize(self, ctx: ExecutionContext, state: dict) -> GTable | None:
        """Produce the sink's materialised output (None for pure effects)."""
        raise NotImplementedError


class OperatorRegistry:
    """Switchable operator implementations (§3.2.2's modular design).

    Sirius lets developers swap an operator's implementation between GPU
    libraries (libcudf) and custom CUDA kernels; this registry models that:
    implementations are registered under ``(op_kind, impl_name)`` and the
    active implementation per kind is selectable at runtime.
    """

    def __init__(self):
        self._impls: dict[tuple[str, str], object] = {}
        self._active: dict[str, str] = {}

    def register(self, op_kind: str, impl_name: str, impl: object, make_active: bool = False):
        self._impls[(op_kind, impl_name)] = impl
        if make_active or op_kind not in self._active:
            self._active[op_kind] = impl_name

    def use(self, op_kind: str, impl_name: str) -> None:
        if (op_kind, impl_name) not in self._impls:
            raise KeyError(f"no implementation {impl_name!r} registered for {op_kind!r}")
        self._active[op_kind] = impl_name

    def get(self, op_kind: str):
        name = self._active.get(op_kind)
        if name is None:
            raise KeyError(f"no implementation registered for {op_kind!r}")
        return self._impls[(op_kind, name)]

    def active_implementations(self) -> dict[str, str]:
        return dict(self._active)

    def available(self, op_kind: str) -> list[str]:
        return [impl for kind, impl in self._impls if kind == op_kind]
