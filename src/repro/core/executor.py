"""The pipeline executor: global task queue + push-based execution.

Reproduces §3.2.2's model:

* the physical plan is a set of **pipelines**; each is a task enqueued in
  a global queue and picked up when its dependencies are satisfied (the
  paper's idle CPU threads pulling tasks — execution here is sequential
  over the ready set, which is equivalent under a simulated clock);
* within a pipeline, execution is **push-based**: the executor owns all
  state (the ``state`` dict per pipeline plus the shared slot table) and
  pushes chunks into stateless operators;
* every operator's simulated time is attributed to its Figure-5 category,
  producing the per-query breakdown the paper reports.

Execution is **task-granular**: a :class:`QueryRun` advances one chunk at
a time through :meth:`QueryRun.step`, which is what lets the serving
scheduler (:mod:`repro.sched`) interleave many concurrent queries on one
device at chunk granularity.  ``SiriusEngine.execute`` simply steps a run
to completion, so single-query execution takes the same path (same
pipeline order, same clock charges, same profiles).

When the execution context carries a real tracer the executor also emits
the span hierarchy query → pipeline → operator.  Operator work inside a
pipeline interleaves chunk by chunk, so operator spans are recorded
retroactively: their interval covers first to last activity and their
``busy_s`` attribute carries the accumulated active time (the intervals
of sibling operators overlap; ``busy_s`` values are disjoint and sum to
the query's accumulated *service* time — which equals elapsed simulated
time when the query runs alone, and excludes other queries' interleaved
work when it does not).
"""

from __future__ import annotations

from collections import deque

from ..kernels import GTable, slice_table
from ..obs import OperatorTiming, QueryProfile
from .deadline import Deadline
from .operators.base import ChunkStream, ExecutionContext, dispose_chunk
from .operators.join import PartitionedBuild
from .operators.scan import IntermediateSource, TableScan
from .planner import PhysicalPlan, Pipeline

__all__ = ["QueryRun", "QueryProfile", "OperatorTiming"]

_DONE = object()


class QueryRun:
    """Task-granular execution of one :class:`PhysicalPlan`.

    A run is a resumable coroutine over the query's pipelines: every call
    to :meth:`step` performs one task — pushing one source chunk through a
    pipeline's operators into its sink (plus any adjacent bookkeeping such
    as finalising a finished pipeline or opening the next one).  Pipelines
    are served from the global queue in dependency order, so stepping a
    run to completion executes the whole query.

    A :class:`~repro.core.deadline.Deadline` (simulated-time budget) is
    enforced at chunk and pipeline boundaries — the run stops pushing
    work as soon as the clock passes the deadline, raising
    :class:`~repro.core.deadline.DeadlineExceededError`.

    Attributes:
        service_seconds: Accumulated simulated time this run's own steps
            advanced the clock — under concurrent serving this is the
            query's *service time*, excluding other queries' interleaved
            work (and equal to ``profile.sim_seconds`` when run alone).
        result: The final :class:`GTable` once the run finishes.
        profile: The :class:`QueryProfile`, complete once finished.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        physical: PhysicalPlan,
        deadline: Deadline | None = None,
    ):
        self.ctx = ctx
        self.physical = physical
        self.deadline = deadline
        self.profile = QueryProfile()
        self.result: GTable | None = None
        self.service_seconds = 0.0
        self.steps_taken = 0
        self.done = False
        self._gen = self._drive()

    # -- stepping ------------------------------------------------------------

    def step(self) -> bool:
        """Advance by one task (≈ one chunk); ``False`` once finished.

        Simulated time consumed by the step is added to
        :attr:`service_seconds`.  Exceptions (deadline expiry, device OOM,
        injected faults) propagate to the caller; the run is closed —
        open spans unwound — and cannot be resumed.
        """
        if self.done:
            return False
        clock = self.ctx.device.clock
        mark = clock.now
        try:
            next(self._gen)
        except StopIteration:
            self.done = True
        except BaseException:
            self.done = True
            raise
        finally:
            self.service_seconds += clock.now - mark
            self.steps_taken += 1
        return not self.done

    def abort(self) -> None:
        """Terminate an unfinished run, unwinding its open trace spans."""
        if not self.done:
            self._gen.close()
            self.done = True

    # -- the coroutine -------------------------------------------------------

    def _drive(self):
        # Fragment names are only slot-unique; concurrent queries share
        # one buffer manager, so each run gets its own namespace — and
        # an aborted run (OOM, deadline) must not strand its fragments.
        frag_ns = self.ctx.buffer_manager.fragment_namespace()
        try:
            yield from self._drive_steps(frag_ns)
        finally:
            self.ctx.buffer_manager.drop_namespace(frag_ns)
            # A finished run keeps its result and profile, not its plan's
            # compiled operators: serving keeps finished jobs' runs.
            self.physical = None

    def _drive_steps(self, frag_ns: str):
        ctx = self.ctx
        clock = ctx.device.clock
        tracer = ctx.tracer
        pool = ctx.device.processing_pool
        start = clock.now
        buckets_before = clock.buckets()
        streams_before = clock.stream_stats()
        kernels_before = ctx.device.kernel_count
        fused_before = ctx.device.fused_kernel_count
        saved_before = ctx.device.fusion_saved_bytes
        trace_mark = tracer.mark()
        pool.begin_watermark()
        spill_before = ctx.buffer_manager.spill_stats()

        slots: dict[str, GTable] = {}
        consumers = self.physical.slot_consumers()
        profile = self.profile
        deadline = self.deadline

        with tracer.span(
            "query", kind="query", clock=clock, device=ctx.device.spec.name
        ) as qspan:
            queue = deque(self.physical.pipelines)
            done: set[int] = set()
            while queue:
                progressed = False
                for _ in range(len(queue)):
                    pipeline = queue.popleft()
                    if pipeline.dependencies <= done:
                        if ctx.buffer_manager.overlap:
                            self._prefetch_next(pipeline, queue, done)
                        yield from self._pipeline_steps(
                            pipeline, slots, profile, deadline, frag_ns
                        )
                        done.add(pipeline.pid)
                        self._release_slots(
                            pipeline, slots, consumers, self.physical.final_slot
                        )
                        progressed = True
                    else:
                        queue.append(pipeline)
                if not progressed:
                    raise RuntimeError("pipeline dependency cycle detected")

            if deadline is not None:
                deadline.check_at(clock.now)
            result = slots[self.physical.final_slot]
            profile.sim_seconds = clock.now - start
            buckets_after = clock.buckets()
            profile.breakdown = {
                k: buckets_after.get(k, 0.0) - buckets_before.get(k, 0.0)
                for k in set(buckets_after) | set(buckets_before)
            }
            profile.breakdown = {k: v for k, v in profile.breakdown.items() if v > 0}
            profile.kernel_count = ctx.device.kernel_count - kernels_before
            profile.fused_kernels = ctx.device.fused_kernel_count - fused_before
            profile.fusion_saved_bytes = ctx.device.fusion_saved_bytes - saved_before
            profile.output_rows = result.num_rows
            profile.device_mem_peak = pool.watermark
            streams_after = clock.stream_stats()
            hidden = 0.0
            for name, stats in streams_after.items():
                before = streams_before.get(name, {})
                busy_d = stats["busy_s"] - before.get("busy_s", 0.0)
                exposed_d = stats["exposed_s"] - before.get("exposed_s", 0.0)
                if busy_d > 0.0:
                    profile.stream_busy[name] = busy_d
                    # A wait can join stream work issued before this query
                    # started, so clamp per stream rather than summing raw.
                    hidden += max(busy_d - exposed_d, 0.0)
            profile.overlap_hidden_s = hidden
            spill_after = ctx.buffer_manager.spill_stats()
            spill_delta = {
                k: spill_after[k] - spill_before.get(k, 0)
                for k in (
                    "fragment_spills",
                    "fragment_unspills",
                    "spilled_bytes",
                    "unspilled_bytes",
                    "pressure_spills",
                    "disk_spills",
                    "disk_spilled_bytes",
                )
            }
            if any(spill_delta.values()):
                profile.spill = spill_delta
            if profile.stream_busy:
                total_busy = sum(profile.stream_busy.values())
                if total_busy > 0.0:
                    tracer.gauge("overlap.efficiency", hidden / total_busy)
            qspan.set(
                rows_out=profile.output_rows,
                kernel_count=profile.kernel_count,
                pipelines_run=profile.pipelines_run,
                chunks_processed=profile.chunks_processed,
                device_mem_peak=profile.device_mem_peak,
            )
        profile.spans = list(tracer.spans_since(trace_mark))
        self.result = result

    def _pipeline_steps(
        self,
        pipeline: Pipeline,
        slots: dict,
        profile: QueryProfile,
        deadline: Deadline | None = None,
        frag_ns: str = "q0",
    ):
        state: dict = {"slots": slots, "frag_ns": frag_ns}
        clock = self.ctx.device.clock
        tracer = self.ctx.tracer
        with tracer.span(
            f"pipeline-{pipeline.pid}", kind="pipeline", clock=clock, pid=pipeline.pid
        ) as pspan:
            p_start = clock.now
            acct = {
                "op_seconds": {op: 0.0 for op in pipeline.operators},
                "op_rows": {op: 0 for op in pipeline.operators},
                "op_first": {},
                "op_last": {},
                "sink_seconds": 0.0,
                "sink_first": None,
            }
            source_seconds = 0.0
            source_rows = 0
            source_last = p_start
            chunk_iter = self._source_chunks(pipeline, slots)
            while True:
                mark = clock.now
                chunk = next(chunk_iter, _DONE)
                source_seconds += clock.now - mark
                source_last = clock.now
                if chunk is _DONE:
                    break
                source_rows += chunk.num_rows
                if deadline is not None:
                    deadline.check_at(clock.now)
                profile.chunks_processed += 1
                consumed = False
                for _ in self._push_chunk(pipeline, chunk, 0, state, slots, acct):
                    consumed = True
                    yield
                if not consumed:  # chunk dropped mid-pipeline
                    yield
            if self.ctx.buffer_manager.overlap:
                # Pipeline-end stream join: overlapped cold-load chunks this
                # pipeline consumed must land before its sink finalises;
                # only the un-overlapped remainder is exposed here.
                self.ctx.buffer_manager.complete_loads()
            if self.ctx.buffer_manager.sanitizer is not None:
                self.ctx.buffer_manager.sanitizer.on_pipeline_end(
                    f"pipeline-{pipeline.pid}"
                )
            mark = clock.now
            if acct["sink_first"] is None:
                acct["sink_first"] = mark
            with clock.attributed(pipeline.sink.category):
                output = pipeline.sink.finalize(self.ctx, state)
            acct["sink_seconds"] += clock.now - mark
            op_seconds = acct["op_seconds"]
            op_rows = acct["op_rows"]
            op_first = acct["op_first"]
            op_last = acct["op_last"]
            sink_seconds = acct["sink_seconds"]
            sink_first = acct["sink_first"]
            if output is not None:
                slots[pipeline.output_slot] = output
            for op in pipeline.operators:
                profile.operator_timings.append(
                    OperatorTiming(
                        pipeline.pid, op.describe(), op.category, op_seconds[op], op_rows[op]
                    )
                )
            output_rows = output.num_rows if output is not None else 0
            profile.operator_timings.append(
                OperatorTiming(
                    pipeline.pid,
                    pipeline.sink.describe(),
                    pipeline.sink.category,
                    sink_seconds,
                    output_rows,
                )
            )
            profile.pipelines_run += 1
            if tracer.enabled:
                tracer.record_span(
                    pipeline.source.describe(),
                    "operator",
                    start=p_start,
                    end=source_last,
                    parent=pspan,
                    busy_s=source_seconds,
                    rows_out=source_rows,
                    category=pipeline.source.category,
                    role="source",
                )
                for op in pipeline.operators:
                    tracer.record_span(
                        op.describe(),
                        "operator",
                        start=op_first.get(op, p_start),
                        end=op_last.get(op, p_start),
                        parent=pspan,
                        busy_s=op_seconds[op],
                        rows_out=op_rows[op],
                        category=op.category,
                        role="streaming",
                    )
                tracer.record_span(
                    pipeline.sink.describe(),
                    "operator",
                    start=sink_first,
                    end=clock.now,
                    parent=pspan,
                    busy_s=sink_seconds,
                    rows_out=output_rows,
                    category=pipeline.sink.category,
                    role="sink",
                )
                pspan.set(rows_out=output_rows, source_rows=source_rows)

    def _push_chunk(self, pipeline: Pipeline, chunk, idx: int, state, slots, acct):
        """Push one chunk through ``pipeline.operators[idx:]`` and into the
        sink, yielding once per sink consumption (the task granularity the
        scheduler preempts at).

        Supports one-to-many operators: when ``process`` returns a
        :class:`ChunkStream`, each emitted chunk recurses through the
        remaining operators *before* the next one is pulled, so a
        streaming probe's output is never resident all at once.  The
        stream-producing operator's generator owns disposal of its input
        chunk; the pairwise disposal below covers ordinary one-to-one
        operators.
        """
        ctx = self.ctx
        clock = ctx.device.clock
        dispose = ctx.out_of_core
        ops = pipeline.operators
        while idx < len(ops):
            op = ops[idx]
            mark = clock.now
            acct["op_first"].setdefault(op, mark)
            prev = chunk
            with clock.attributed(op.category):
                out = op.process(ctx, chunk, state)
            acct["op_seconds"][op] += clock.now - mark
            acct["op_last"][op] = clock.now
            idx += 1
            if isinstance(out, ChunkStream):
                it = iter(out.chunks)
                while True:
                    mark = clock.now
                    with clock.attributed(op.category):
                        sub = next(it, _DONE)
                    acct["op_seconds"][op] += clock.now - mark
                    acct["op_last"][op] = clock.now
                    if sub is _DONE:
                        return
                    acct["op_rows"][op] += sub.num_rows
                    yield from self._push_chunk(pipeline, sub, idx, state, slots, acct)
                return
            if dispose and out is not None and out is not prev:
                dispose_chunk(ctx, prev, slots, successor=out)
            if out is None:
                return
            acct["op_rows"][op] += out.num_rows
            chunk = out
        mark = clock.now
        if acct["sink_first"] is None:
            acct["sink_first"] = mark
        with clock.attributed(pipeline.sink.category):
            pipeline.sink.consume(ctx, chunk, state)
        acct["sink_seconds"] += clock.now - mark
        yield

    def _prefetch_next(self, current: Pipeline, queue, done: set[int]) -> None:
        """Scan-prefetch hook: before running ``current``, issue an async
        cold load for the base table of the next pipeline that becomes
        ready once ``current`` completes, so its copy streams behind this
        pipeline's kernels."""
        will_be_done = done | {current.pid}
        for candidate in queue:
            if candidate.dependencies <= will_be_done and isinstance(
                candidate.source, TableScan
            ):
                host = self.ctx.catalog.get(candidate.source.table_name)
                if host is not None:
                    self.ctx.buffer_manager.prefetch(candidate.source.table_name, host)
                return

    def _source_chunks(self, pipeline: Pipeline, slots: dict):
        source = pipeline.source
        if isinstance(source, IntermediateSource):
            table = slots[source.slot]
            batch = self.ctx.batch_rows
            if batch is None or table.num_rows <= batch:
                yield table
                return
            for start in range(0, table.num_rows, batch):
                yield slice_table(table, start, min(batch, table.num_rows - start))
            return
        yield from source.chunks(self.ctx)

    def _release_slots(self, pipeline, slots, consumers, final_slot) -> None:
        """Drop slot references once all consumers finished.

        Buffer bytes themselves are reclaimed by the engine's per-query
        RMM pool reset (intermediates freely share buffers, so per-slot
        frees would be unsound); dropping the reference here just keeps the
        slot table small for long plans.
        """
        for slot in pipeline.used_slots():
            consumers[slot] -= 1
            if consumers[slot] == 0 and slot != final_slot:
                retired = slots.pop(slot, None)
                if isinstance(retired, PartitionedBuild):
                    # Out-of-core builds own tiered-store fragments, not
                    # pool buffers; release them as soon as the last probe
                    # finishes so later pipelines reclaim the space.
                    for name in retired.leaves.values():
                        self.ctx.buffer_manager.drop_fragment(name)
