"""Hash-join operators: a build-side sink and a streaming probe.

The join is split across pipelines, following the pipeline model: the
build side runs first as its own pipeline (terminating in
:class:`HashJoinBuildSink`), and the probe side streams through
:class:`HashJoinProbe` referencing the materialised build slot.

Two implementations are registered (§3.2.2's libcudf/custom switch):

* ``"libcudf"`` — the kernel library's hash join;
* ``"custom"``  — a sort-merge join "custom kernel" with a different cost
  profile (two sort passes + a streaming merge instead of random-access
  hashing); results are identical.

Row indices crossing the kernel/engine boundary pay the paper's one
non-zero-copy conversion (§3.2.3) through the buffer manager: each int32
gather map becomes uint64 engine row ids, one charged launch per map.
libcudf's ``gather`` needs the map back as int32: the probe's output
region converts it as one of its parts — a second launch per map under
per-part billing, the paper's Sirius, and inside the region's one launch
under fused billing.

The build sink consumes through the partition spool (:mod:`.spool`).  When
an out-of-core run scatters it, each leaf is kept as a fragment of a
:class:`PartitionedBuild`, and the probe routes probe rows through the
same ``partition_by_keys`` hashes, level by level, to the leaf they can
match.

Under fused billing a held build keeps its hash table: the sink builds it
once, in one region with its concat, and each probe call charges only
``HASH_PROBE``.  Per-part billing, the paper's Sirius, and the leaves of a
partitioned build charge the build on every probe call, as the kernel
library's join does.
"""

from __future__ import annotations

import numpy as np

from ...columnar import Schema, Table
from ...gpu.costmodel import KernelClass
from ...kernels import (
    GTable,
    anti_join,
    build_hash_table,
    concat_gtables,
    gather_table,
    inner_join,
    left_join,
    mask_table,
    partition_by_keys,
    probe_hash_table,
    semi_join,
)
from ...kernels.join import JoinResult, _expand, _match_ranges
from ...kernels.keys import factorize_keys
from ...plan.relations import join_output_schema
from ..expr_compile import compile_predicate
from .base import (
    Category,
    ChunkStream,
    ExecutionContext,
    SinkOperator,
    StreamingOperator,
    dispose_chunk,
)
from .fused import compile_stages, run_region, run_stages
from .spool import PARTITION_FANOUT, finish_held, scattered, spool_chunk, spooled_leaves

__all__ = [
    "HashJoinBuildSink",
    "HashJoinProbe",
    "PartitionedBuild",
    "libcudf_join",
    "custom_sort_merge_join",
]


def libcudf_join(join_type: str, probe_keys, build_keys):
    """The default implementation: kernel-library hash join.

    Returns a :class:`JoinResult` for inner/left, or an index array for
    semi/anti (probe-side survivors).
    """
    if join_type == "inner":
        return inner_join(probe_keys, build_keys)
    if join_type == "left":
        return left_join(probe_keys, build_keys)
    if join_type == "semi":
        return semi_join(probe_keys, build_keys)
    if join_type == "anti":
        return anti_join(probe_keys, build_keys)
    raise ValueError(f"unknown join type {join_type!r}")


def custom_sort_merge_join(join_type: str, probe_keys, build_keys):
    """Alternative "custom kernel": sort-merge join.

    Same output as the hash join; cost charged as two SORT kernels plus a
    streaming merge, which trades the hash join's random-access discount
    for log-factor passes.
    """
    device = probe_keys[0].device
    pcodes, bcodes, num_codes = factorize_keys(probe_keys, build_keys, nulls_match=False)
    probe_bytes = sum(k.traffic_bytes for k in probe_keys)
    build_bytes = sum(k.traffic_bytes for k in build_keys)
    device.launch(KernelClass.SORT, probe_bytes, len(pcodes) * 4, len(pcodes))
    device.launch(KernelClass.SORT, build_bytes, len(bcodes) * 4, len(bcodes))
    lo, hi = _match_ranges(bcodes, pcodes, num_codes)
    if join_type in ("semi", "anti"):
        matched = hi > lo
        out = np.flatnonzero(matched if join_type == "semi" else ~matched).astype(np.int32)
        device.launch(KernelClass.STREAM, probe_bytes + build_bytes, out.nbytes, len(pcodes))
        return out
    probe_idx, build_idx, counts = _expand(bcodes, lo, hi)
    if join_type == "left":
        unmatched = np.flatnonzero(counts == 0)
        probe_idx = np.concatenate([probe_idx, unmatched])
        build_idx = np.concatenate([build_idx, np.full(len(unmatched), -1, dtype=np.int64)])
    device.launch(
        KernelClass.STREAM, probe_bytes + build_bytes, len(probe_idx) * 8, len(pcodes)
    )
    return JoinResult(probe_idx, build_idx)


class HashJoinBuildSink(SinkOperator):
    """Materialises the build (right) side of a join into a slot.

    Input goes through the partition spool.  A build that never scattered
    puts the plain build table in the slot; under fused billing it is
    finalized as one region, its concat and the hash table the probes
    read, built once (:func:`_keeps_table`).  One that scattered registers
    every leaf as a buffer-manager fragment and puts a
    :class:`PartitionedBuild` handle naming them in the slot; the probe
    routes probe rows through the same salted hashes, so every key pair
    meets in exactly one leaf and the join is exact.
    """

    category = Category.JOIN

    def __init__(self, slot: str, schema: Schema, key_indices):
        self.slot = slot
        self.schema = schema
        self.key_indices = list(key_indices)

    def output_schema(self) -> Schema:
        return self.schema

    def consume(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> None:
        spool_chunk(ctx, chunk, self.key_indices, self.slot, state)

    def finalize(self, ctx: ExecutionContext, state: dict):
        if not scattered(state):
            return finish_held(ctx, state, self._finalize_held)
        build = PartitionedBuild()
        for path, table in spooled_leaves(ctx, self.key_indices, state):
            name = f"{state['frag_ns']}/{self.slot}/" + ".".join(str(d) for d in path)
            ctx.buffer_manager.put_fragment(name, table)
            build.add_leaf(path, name, table.num_rows)
        if not build.leaves:
            # Degenerate empty build: hand the probe a plain empty GTable.
            return self._finalize_held(ctx, {})
        return build

    def _finalize_held(self, ctx: ExecutionContext, state: dict) -> GTable:
        chunks = state.get("chunks", [])
        if len(chunks) < 2:
            table = chunks[0] if chunks else _empty_gtable(ctx, self.schema)
            self._build(ctx, table)
            return table
        with ctx.device.fused_kernel() as scope:
            table = concat_gtables(chunks)
            table_bytes = self._build(ctx, table)
            if scope.fused:
                bytes_in = sum(c.traffic_bytes for c in chunks)
                scope.external(bytes_in, table.traffic_bytes + table_bytes)
        return table

    def _build(self, ctx: ExecutionContext, table: GTable) -> int:
        """Build the hash table every probe call reads, if the build keeps
        one (:func:`_keeps_table`); returns its bytes, 0 when it does not."""
        if not (self.key_indices and _keeps_table(ctx)):
            return 0
        return build_hash_table([table.columns[i] for i in self.key_indices])

    def describe(self) -> str:
        return f"HashJoinBuild({self.slot})"


def _keeps_table(ctx: ExecutionContext) -> bool:
    """Whether a held build keeps its hash table for every probe call: under
    fused billing, when the hash join is the active implementation (the
    sort-merge join has no table to keep)."""
    return ctx.device.fused_billing and ctx.registry.get("join") is libcudf_join


class HashJoinProbe(StreamingOperator):
    """Streams probe chunks against the build slot.

    Against a plain build table each chunk is probed once.  Against a
    :class:`PartitionedBuild` each chunk is routed through the same salted
    radix hashes the build used, so probe rows of leaf ``path`` meet
    exactly the build rows of leaf ``path``; leaves are unspilled one at a
    time via the buffer manager (LRU — hot leaves stay resident, cold ones
    come back from pinned host or disk).  Probe rows whose build partition
    is empty short-circuit: dropped for inner/semi, probed against an empty
    table for left/anti so unmatched-row semantics hold.

    Per-leaf join outputs are *streamed* downstream as a
    :class:`~.base.ChunkStream` rather than concatenated: the executor
    pushes each leaf output through the rest of the pipeline before the
    next leaf is probed, so the probe never holds its full output
    resident — that residency is exactly what would put a lower bound of
    ``output_size`` on the memory floor.

    A probe call is two regions (:meth:`Device.fused_kernel`) around the
    launches of its own.  The input region runs ``input_stages`` — the
    Filter/Project run that opens the pipeline and feeds the probe — and
    the matching kernel (``HASH_PROBE``).  The hash build, when the call
    charges one, is a launch of its own: a table is complete before any
    probe reads it.  Against a held build under fused billing the sink
    built the table once (:class:`HashJoinBuildSink`) and the call charges
    no build.  The §3.2.3 copy of each gather map to uint64 engine ids is
    a launch of its own.  The output region runs each map's return trip
    to int32, both sides' gathers, the residual ``post_filter`` and
    ``stages`` — the Filter/Project run that follows the probe.  The
    compiler hands the probe both runs when it builds it; they and the
    residual are compiled once, here, so a probe the device cannot lower
    fails ``compile_plan``; the residual runs without a CSE cache.
    A probe against a plain build runs both regions per chunk.  A
    scattered probe runs ``input_stages`` as a region of their own before
    it partitions the chunk, assembles each leaf's output without
    ``stages`` and runs them on every coalesced batch of leaf outputs, in
    a region of their own.
    """

    category = Category.JOIN

    def __init__(
        self,
        build_slot: str,
        join_type: str,
        probe_key_indices,
        build_key_indices,
        probe_schema: Schema,
        build_schema: Schema,
        post_filter=None,
        stages=(),
        input_stages=(),
    ):
        self.build_slot = build_slot
        self.join_type = join_type
        self.probe_key_indices = list(probe_key_indices)
        self.build_key_indices = list(build_key_indices)
        self.probe_schema = probe_schema
        self.build_schema = build_schema
        self.post_filter = post_filter
        self._residual = compile_predicate(post_filter) if post_filter is not None else None
        self.stages = list(stages)
        self._program = compile_stages(self.stages, self.join_schema() if self.stages else None)
        self.input_stages = list(input_stages)
        self._inputs = compile_stages(self.input_stages)

    def join_schema(self) -> Schema:
        """The schema the join itself produces, before any absorbed stage."""
        if self.join_type in ("semi", "anti"):
            return self.probe_schema
        return join_output_schema(self.probe_schema, self.build_schema)

    def output_schema(self) -> Schema:
        if self.stages:
            return self.stages[-1].output_schema()
        return self.join_schema()

    def process(self, ctx: ExecutionContext, chunk: GTable, state: dict):
        slots = state["slots"]
        build = slots[self.build_slot]
        if isinstance(build, PartitionedBuild):
            if self._inputs:
                chunk = run_region(ctx, self._inputs, chunk, slots)
            return ChunkStream(self._stream_leaf_outputs(ctx, chunk, build, state))
        kept = _keeps_table(ctx)
        return self._probe_against(ctx, chunk, build, slots, self._program, self._inputs, kept)

    def _finish(self, ctx, scope, chunk, joined, right_out, map_bytes, slots, program) -> GTable:
        """Close the output region: run ``program`` over the join output and,
        under fused billing, declare the external traffic — the probe
        chunk, the gathered build columns ``right_out`` (if any) and the
        ``map_bytes`` of gather maps in, the output out.  Out-of-core, a
        probe with stages frees its input once the join output exists, as
        :func:`~.fused.run_stages` frees each stage's input."""
        if program and ctx.out_of_core:
            dispose_chunk(ctx, chunk, slots, successor=joined)
        out = run_stages(ctx, scope, program, joined, slots)
        if scope.fused:
            bytes_in = chunk.traffic_bytes + map_bytes
            if right_out is not None:
                bytes_in += right_out.traffic_bytes
            scope.external(bytes_in, out.traffic_bytes)
        return out

    def _probe_against(
        self, ctx, chunk: GTable, build_table: GTable, slots: dict, program, inputs=(), kept=False
    ) -> GTable:
        """Probe one chunk against one materialised build table (the whole
        build, or one leaf of a partitioned one): the input region runs
        ``inputs`` and the match, the output region also runs ``program``.
        ``kept``: the build sink built the table's hash table."""
        if not inputs:
            matched = self._match(ctx, chunk, build_table, kept)
            return self._output(ctx, chunk, build_table, matched, slots, program, kept)
        with ctx.device.fused_kernel() as scope:
            probe_in = run_stages(ctx, scope, inputs, chunk, slots)
            matched = self._match(ctx, probe_in, build_table, kept)
            if scope.fused:
                # Out: the probe side the gathers read, and 8 B per match.
                scope.external(chunk.traffic_bytes, probe_in.traffic_bytes + 8 * len(matched))
        out = self._output(ctx, probe_in, build_table, matched, slots, program, kept)
        if ctx.out_of_core and probe_in is not chunk:
            dispose_chunk(ctx, probe_in, slots, successor=out)
        return out

    def _match(self, ctx, chunk: GTable, build_table: GTable, kept: bool):
        """The matching kernel: a :class:`JoinResult`, or the probe rows a
        semi/anti join keeps.  A key-less join is the full cartesian
        product, produced by the planner only for single-row
        scalar-subquery joins but implemented generally."""
        if not self.probe_key_indices:
            if self.join_type != "inner":
                raise ValueError("cross join supports inner join type only")
            n, m = chunk.num_rows, build_table.num_rows
            pairs = JoinResult(
                np.repeat(np.arange(n, dtype=np.int32), m),
                np.tile(np.arange(m, dtype=np.int32), n),
            )
            ctx.device.launch(
                KernelClass.STREAM, chunk.nbytes + build_table.nbytes, n * m * 8, n * m
            )
            return pairs
        return self._join(ctx, self.join_type, chunk, build_table, kept)

    def _join(self, ctx, join_type: str, chunk: GTable, build_table: GTable, kept: bool):
        """A keyed ``join_type`` join: a probe of the ``kept`` hash table, or
        a call of the active implementation, which builds its own."""
        probe_keys = [chunk.columns[i] for i in self.probe_key_indices]
        build_keys = [build_table.columns[i] for i in self.build_key_indices]
        if kept:
            return probe_hash_table(join_type, probe_keys, build_keys)
        return ctx.registry.get("join")(join_type, probe_keys, build_keys)

    def _output(self, ctx, chunk, build_table, matched, slots, program, kept) -> GTable:
        """The output region over ``matched``."""
        if not self.probe_key_indices:
            return self._cross_join(ctx, chunk, build_table, matched, slots, program)
        semi = self.join_type in ("semi", "anti")
        if semi and self.post_filter is not None:
            return self._filtered_semi_anti(ctx, chunk, build_table, slots, program, kept)
        with ctx.device.fused_kernel() as scope:
            indices = [matched] if semi else [matched.left_indices, matched.right_indices]
            maps, map_bytes = _round_trip(ctx, indices)
            if semi:
                out, right_out = gather_table(chunk, maps[0]), None
            else:
                # Residual predicates are *filtering* work (Q13's NOT LIKE
                # on o_comment lives here); attribute them as Figure 5 does.
                out, right_out = self._assemble(ctx, chunk, build_table, maps, Category.FILTER)
            return self._finish(ctx, scope, chunk, out, right_out, map_bytes, slots, program)

    def _assemble(self, ctx, chunk, build_table, maps, residual) -> tuple[GTable, GTable]:
        """Gather both sides' output rows by the int32 ``maps`` and apply
        the residual ``post_filter``, its time attributed to ``residual``;
        returns the output and the gathered build columns."""
        left_out = gather_table(chunk, maps[0])
        right_out = gather_table(build_table, maps[1])
        out = GTable(
            self.join_schema(),
            list(left_out.columns) + list(right_out.columns),
            chunk.device,
        )
        if self._residual is not None:
            with ctx.device.clock.attributed(residual):
                keep = self._residual(out, None)
                out = mask_table(out, keep)
        return out, right_out

    def _cross_join(self, ctx, chunk, build_table, pairs, slots: dict, program) -> GTable:
        """The cartesian product's output region.  Its int32 maps are the
        engine's own and need no conversion."""
        with ctx.device.fused_kernel() as scope:
            maps = [pairs.left_indices, pairs.right_indices]
            out, right_out = self._assemble(ctx, chunk, build_table, maps, Category.JOIN)
            map_bytes = maps[0].nbytes + maps[1].nbytes
            return self._finish(ctx, scope, chunk, out, right_out, map_bytes, slots, program)

    def _filtered_semi_anti(self, ctx, chunk, build_table, slots, program, kept) -> GTable:
        """Semi/anti join with a residual non-equi predicate (Q21's
        ``l2.l_suppkey <> l1.l_suppkey`` pattern): run the inner join,
        filter the pairs, then reduce back to distinct probe rows."""
        pairs = self._join(ctx, "inner", chunk, build_table, kept)
        with ctx.device.fused_kernel() as scope:
            left_out = gather_table(chunk, pairs.left_indices)
            right_out = gather_table(build_table, pairs.right_indices)
            combined = GTable(
                join_output_schema(self.probe_schema, self.build_schema),
                list(left_out.columns) + list(right_out.columns),
                chunk.device,
            )
            with ctx.device.clock.attributed(Category.FILTER):
                keep = self._residual(combined, None)
            matched_probe = np.unique(pairs.left_indices[keep])
            ctx.device.launch(
                KernelClass.STREAM, pairs.left_indices.nbytes, matched_probe.nbytes, len(pairs)
            )
            if self.join_type == "semi":
                survivors = matched_probe.astype(np.int32)
            else:
                all_rows = np.arange(chunk.num_rows, dtype=np.int64)
                survivors = np.setdiff1d(all_rows, matched_probe).astype(np.int32)
            out = gather_table(chunk, survivors)
            map_bytes = pairs.left_indices.nbytes + pairs.right_indices.nbytes
            return self._finish(ctx, scope, chunk, out, right_out, map_bytes, slots, program)

    def _stream_leaf_outputs(self, ctx, chunk: GTable, build, state: dict):
        """Partition the input, free it, then lazily yield join outputs
        (the executor interleaves downstream work between pulls).

        Consecutive per-leaf outputs are coalesced up to ~1/8 of the
        processing pool, and the absorbed stages run on each coalesced
        batch: unbounded accumulation would re-materialise the whole probe
        output (the memory floor streaming exists to remove), while
        emitting every leaf individually multiplies downstream kernel
        launches by the leaf count and drowns the query in launch latency.
        """
        budget = max(ctx.device.processing_pool.capacity // 8, 1 << 20)
        slots = state["slots"]
        pending: list[GTable] = []
        pending_bytes = 0

        def flush():
            if len(pending) == 1:
                out = pending[0]
            else:
                out = concat_gtables(pending)
                for t in pending:
                    t.free()
            pending.clear()
            return run_region(ctx, self._program, out, slots)

        parts = list(partition_by_keys(chunk, self.probe_key_indices, PARTITION_FANOUT))
        dispose_chunk(ctx, chunk, slots)  # sub-partitions are copies; drop the input
        for q, sub in enumerate(parts):
            if sub is None:
                continue
            for out in self._probe_stream(ctx, sub, build, (q,), 1, slots):
                pending.append(out)
                pending_bytes += out.nbytes
                if pending_bytes >= budget:
                    pending_bytes = 0
                    yield flush()
            sub.free()
        if pending:
            yield flush()

    def _probe_stream(self, ctx, chunk: GTable, build, path, level: int, slots: dict):
        """Probe the rows of ``chunk`` (already routed to ``path``) against
        the build leaves under ``path``, recursing level by level."""
        if path in build.leaves:
            build_table = ctx.buffer_manager.get_fragment(build.leaves[path])
            yield from self._emit(ctx, chunk, build_table, slots)
            return
        if not build.has_descendants(path):
            # No build rows hash here.  Inner/semi probe rows can never
            # match; left/anti still owe output for unmatched rows.
            if self.join_type in ("left", "anti"):
                empty = _empty_gtable(ctx, self.build_schema)
                yield from self._emit(ctx, chunk, empty, slots)
                empty.free()
            return
        parts = partition_by_keys(chunk, self.probe_key_indices, PARTITION_FANOUT, level=level)
        for q, sub in enumerate(parts):
            if sub is None:
                continue
            yield from self._probe_stream(ctx, sub, build, path + (q,), level + 1, slots)
            sub.free()

    def _emit(self, ctx, chunk: GTable, build_table: GTable, slots: dict):
        out = self._probe_against(ctx, chunk, build_table, slots, ())
        if out.num_rows > 0:
            yield out
        else:
            out.free()

    def describe(self) -> str:
        runs = ""
        if self.input_stages:
            runs = ", input=[" + " -> ".join(s.describe() for s in self.input_stages) + "]"
        if self.stages:
            runs += ", fused=[" + " -> ".join(s.describe() for s in self.stages) + "]"
        return f"HashJoinProbe({self.join_type}, slot={self.build_slot}{runs})"


class PartitionedBuild:
    """Handle for an out-of-core build side, stored in the build slot.

    The build rows live as radix partitions registered with the buffer
    manager's fragment store (device / pinned host / disk, wherever
    pressure pushed them) rather than as one resident :class:`GTable`.
    ``leaves`` maps a partition path — a tuple of radix digits, one per
    recursion level — to the fragment name holding that partition.  A
    path is absent when the build side had no rows for it.
    """

    def __init__(self):
        self.leaves: dict[tuple[int, ...], str] = {}
        self.num_rows = 0
        self._prefixes: set[tuple[int, ...]] = set()

    def add_leaf(self, path: tuple[int, ...], name: str, rows: int) -> None:
        self.leaves[path] = name
        self.num_rows += rows
        for i in range(len(path)):
            self._prefixes.add(path[:i])

    def has_descendants(self, path: tuple[int, ...]) -> bool:
        """Whether any leaf lives strictly below ``path`` (meaning the
        probe side must subdivide further to find its match partition)."""
        return path in self._prefixes


def _round_trip(ctx: ExecutionContext, maps: list) -> tuple[list, int]:
    """Inside an open region: each int32 gather map's §3.2.3 copy to uint64
    engine ids, a launch of its own, then at once its return trip to
    int32, a part of the region.  Returns the int32 maps and the bytes of
    the uint64 ids the region reads."""
    bm = ctx.buffer_manager
    out, nbytes = [], 0
    for indices in maps:
        ids = bm.kernel_indices_to_engine(indices)
        nbytes += ids.nbytes
        out.append(bm.engine_indices_to_kernel(ids))
    return out, nbytes


def _empty_gtable(ctx: ExecutionContext, schema: Schema) -> GTable:
    return GTable.from_host(ctx.device, Table.empty(schema))
