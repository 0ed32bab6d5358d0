"""Sirius: the GPU-native SQL engine's public API.

A :class:`SiriusEngine` owns one simulated GPU device, its buffer manager,
and an operator registry, and executes Substrait-style plans end to end on
the device — scan to result — per the paper's GPU-native design principle.
The CPU is involved only for the fallback path.

Typical use (single node)::

    engine = SiriusEngine.for_spec(GH200)
    result = engine.execute(plan, catalog={"lineitem": table})
    print(result.pretty())
    print(engine.last_profile.breakdown)   # Figure-5 style attribution

As a *drop-in accelerator* the engine is attached to a host database (see
``repro.hosts.miniduck``) which routes its optimised plans here instead of
its own CPU engine — with zero change to the host's user interface.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..columnar import Table
from ..gpu.device import Device
from ..gpu.memory import OutOfDeviceMemory
from ..gpu.specs import GH200, DeviceSpec
from ..obs import NULL_TRACER
from ..kernels import groupby as groupby_kernel
from ..plan import Plan
from .buffer_manager import BufferManager
from .deadline import Deadline
from .executor import PipelineExecutor, QueryProfile, QueryRun
from .fallback import (
    FALLBACK_EXCEPTIONS,
    OOC_RETRY_BATCH_ROWS,
    DegradationTier,
    FallbackHandler,
    gpu_rungs,
    retry_settings,
)
from .operators.base import ExecutionContext, OperatorRegistry
from .operators.join import custom_sort_merge_join, libcudf_join
from .planner import PhysicalPlan, compile_plan

__all__ = ["SiriusEngine"]


def _libcudf_groupby(keys, specs):
    return groupby_kernel(keys, specs)


def _custom_hash_groupby(keys, specs):
    """Custom-kernel variant: hash path even for string keys (§3.4 hints)."""
    return groupby_kernel(keys, specs, force_hash=True)


def default_registry() -> OperatorRegistry:
    """Registry with the libcudf implementations active and the custom
    CUDA-kernel stand-ins available for swapping (§3.2.2)."""
    registry = OperatorRegistry()
    registry.register("join", "libcudf", libcudf_join, make_active=True)
    registry.register("join", "custom", custom_sort_merge_join)
    registry.register("groupby", "libcudf", _libcudf_groupby, make_active=True)
    registry.register("groupby", "custom", _custom_hash_groupby)
    return registry


class SiriusEngine:
    """GPU-native execution engine consuming Substrait-style plans."""

    def __init__(
        self,
        device: Device,
        batch_rows: int | None = None,
        tracer=None,
        overlap: bool = False,
        out_of_core: bool = False,
        sanitize: bool = False,
        fusion: bool = False,
    ):
        """
        Args:
            device: The simulated GPU to execute on.  Cached tables spill
                to pinned host memory under pressure (§3.4 out-of-core),
                and the processing pool's pressure callback spills
                partition fragments before an allocation fails.
            batch_rows: If set, pipelines stream inputs in batches of this
                many rows instead of whole tables (§3.4 batch execution).
            tracer: Observability sink (:class:`repro.obs.Tracer`); the
                no-op null tracer by default, keeping untraced execution
                byte-identical.
            overlap: Enable copy/compute overlap — cold loads are chunked
                onto the device's copy stream and prefetched ahead of the
                consuming pipeline.  Off by default; the default path is
                byte-identical to the synchronous loader.
            out_of_core: Compile keyed joins and group-bys to their
                radix-partitioned variants whose partitions spill through
                the tiered store (device -> pinned host -> disk) under
                memory pressure, so over-HBM working sets complete on the
                GPU instead of falling back.  Pinned host staging for
                spilled partitions is capped at the processing pool's
                capacity; overflow demotes to the simulated disk tier.
                Off by default; the default path is byte-identical to the
                seed engine.
            sanitize: Attach a :class:`~repro.analysis.sanitizers
                .Sanitizer` to the device, pool, and buffer manager:
                happens-before, shadow-ledger, and drift checks run
                against every query (SA01–SA08) and the accumulated
                findings are read from ``engine.sanitizer``.  Purely
                observational — a sanitized run is byte-identical to an
                unsanitized one.
            fusion: Collapse each pipeline's runs of adjacent filters and
                projections into single
                :class:`~.operators.fused.FusedOp` regions with
                compiled expressions — one read and one write per chunk,
                interior materialisations priced at zero.  Off by
                default; the default path compiles the seed operator
                tree unchanged and results are byte-identical either way.
        """
        self.device = device
        self.tracer = tracer if tracer is not None else NULL_TRACER
        device.tracer = self.tracer
        self.buffer_manager = BufferManager(device, overlap=overlap)
        self._install_pressure_hooks()
        self.registry = default_registry()
        self.batch_rows = batch_rows
        self.fallback = FallbackHandler(tracer=self.tracer)
        self.fallback.memory_probe = self._memory_probe
        self.pipeline_cpu_executor = None
        self.last_profile: QueryProfile | None = None
        self.queries_executed = 0
        self.out_of_core = out_of_core
        self.fusion = fusion
        self.sanitizer = None
        if sanitize:
            from ..analysis.sanitizers import Sanitizer

            self.sanitizer = Sanitizer()
            self.sanitizer.attach(device, self.buffer_manager)
        if out_of_core and self.batch_rows is None:
            # Out-of-core execution needs bounded chunks: streaming in
            # whole-table chunks would put the full probe side in the
            # pool at once, defeating the partitioned spill.
            self.batch_rows = OOC_RETRY_BATCH_ROWS

    @classmethod
    def for_spec(
        cls,
        spec: DeviceSpec = GH200,
        memory_limit_gb: float | None = None,
        caching_fraction: float = 0.5,
        **kwargs,
    ) -> "SiriusEngine":
        """Build an engine on a fresh device of the given hardware spec.

        The default 50/50 caching/processing split is the paper's
        evaluation configuration.
        """
        device = Device(
            spec, caching_fraction=caching_fraction, memory_limit_gb=memory_limit_gb
        )
        return cls(device, **kwargs)

    # -- configuration ----------------------------------------------------------

    def use_implementation(self, op_kind: str, impl_name: str) -> None:
        """Switch an operator between implementations, e.g.
        ``use_implementation("groupby", "custom")``."""
        self.registry.use(op_kind, impl_name)

    def set_host_executor(self, host_executor: Callable[[Plan], Table]) -> None:
        """Register the host-engine callback of the final ``cpu-plan``
        degradation tier."""
        self.fallback.host_executor = host_executor

    def _install_pressure_hooks(self) -> None:
        """Route processing-pool allocation pressure into partition spills
        (instead of straight to :class:`OutOfDeviceMemory`) and cap the
        pinned staging tier so overflow demotes to the simulated disk.
        Installed once for every engine: with no live fragment the
        callback spills nothing and the allocation fails as before."""
        pool = self.device.processing_pool
        pool.pressure_callback = self.buffer_manager.handle_pressure
        self.buffer_manager.pinned_fragment_budget = pool.capacity

    def _memory_probe(self) -> dict:
        """Memory state sampled into :class:`FallbackEvent` records."""
        bm = self.buffer_manager
        return {
            "memory_watermark": self.device.processing_pool.stats().in_use,
            # Cached tables pushed to pinned host + partition fragments
            # spilled: everything the engine moved trying to stay on-GPU.
            "spill_bytes_attempted": bm.pinned_host_bytes + bm.spilled_fragment_bytes,
        }

    def set_pipeline_cpu_executor(
        self, executor: Callable[[Plan, Mapping[str, Table]], Table]
    ) -> None:
        """Register the ``(plan, catalog) -> Table`` callback of the
        ``cpu-pipeline`` tier, which re-runs just the failed fragment plan
        on the node's CPU (hosts that execute fragment-at-a-time)."""
        self.pipeline_cpu_executor = executor

    # -- execution --------------------------------------------------------------

    def execute(
        self, plan: Plan, catalog: Mapping[str, Table], deadline_s: float | None = None
    ) -> Table:
        """Execute a plan against host ``catalog`` tables; returns a host
        table (device->host copy of the result is charged).

        Recoverable failures walk the degradation ladder: device OOM first
        walks the engine's GPU rungs (:func:`~.fallback.gpu_rungs`: a
        batched retry, then for in-core engines the partitioned
        out-of-core operators), then (if wired) the ``cpu-pipeline`` tier,
        then the registered host executor.  ``deadline_s`` is a
        simulated-time budget enforced at pipeline boundaries; exceeding
        it raises
        :class:`~repro.core.deadline.DeadlineExceededError`, which is *not*
        absorbed by any tier.
        """
        plan.validate()
        deadline = (
            Deadline(deadline_s, self.device.clock) if deadline_s is not None else None
        )
        relaunches_before = self.device.kernel_relaunches

        def gpu_run(**overrides) -> Table:
            self.buffer_manager.clear_fragments()
            self.device.reset_processing_pool()
            run = self._start(plan, catalog, deadline, **overrides)
            while run.step():
                pass
            self.last_profile = run.profile
            result = run.result.to_host()  # deep copy back to the host format
            self.buffer_manager.clear_fragments()
            return result

        def gpu_retry(name: str) -> DegradationTier:
            # Same query under the tier's arguments; the wasted first
            # attempt has already been charged to the clock.
            settings = retry_settings(name, self.batch_rows)
            return DegradationTier(
                name,
                lambda _plan, _exc: gpu_run(**settings),
                (OutOfDeviceMemory,),
                gpu_result=True,
            )

        tiers = [gpu_retry(name) for name in gpu_rungs(self.out_of_core)]
        if self.pipeline_cpu_executor is not None:
            tiers.append(
                DegradationTier(
                    "cpu-pipeline",
                    lambda p, _exc: self.pipeline_cpu_executor(p, catalog),
                    FALLBACK_EXCEPTIONS,
                )
            )
        result, tier = self.fallback.run(
            gpu_run, plan, tiers=tuple(tiers), clock=self.device.clock
        )
        self.queries_executed += 1
        if self.sanitizer is not None and (tier is None or tier.gpu_result):
            # CPU-tier results are excluded: a failed GPU attempt's
            # fragments are cleared by the *next* gpu_run by design.
            self.sanitizer.check_query_end(
                self, f"engine.execute:q{self.queries_executed}"
            )
        if tier is not None and not tier.gpu_result:
            self.last_profile = None  # GPU profile would be misleading
        if self.last_profile is not None:
            self.last_profile.retries = self.device.kernel_relaunches - relaunches_before
            if tier is not None:
                self.last_profile.fallback_tier = tier.name
        return result

    def start_query(
        self,
        plan: Plan,
        catalog: Mapping[str, Table],
        deadline: Deadline | None = None,
        tracer=None,
        batch_rows: int | None = None,
        out_of_core: bool | None = None,
    ) -> QueryRun:
        """Begin task-granular execution of a plan (the serving path).

        Unlike :meth:`execute`, this does **not** reset the processing pool
        (concurrent queries share it; the serving scheduler reclaims each
        query's intermediates via per-owner release) and does not walk the
        degradation ladder — the scheduler owns retry policy because a
        retry must re-enter the admission queue.  The returned
        :class:`~repro.core.executor.QueryRun` is advanced one chunk-task
        at a time with :meth:`~repro.core.executor.QueryRun.step`.

        Args:
            plan: The logical plan to execute.
            catalog: Host tables by name.
            deadline: Optional per-query resource envelope; queue wait
                should already be charged via ``Deadline.charge_wait``.
            tracer: Per-query observability sink (defaults to the
                engine's); serving passes one tracer per query so span
                stacks of interleaved queries never share state.
            batch_rows: Override the engine's streaming batch size for
                this query only (serving uses small batches so queries
                interleave at fine granularity).
            out_of_core: Override the engine's out-of-core mode for this
                query only (serving's ``gpu-spill`` retry recompiles to
                the partitioned operators); ``None`` = engine default.
        """
        plan.validate()
        return self._start(plan, catalog, deadline, tracer, batch_rows, out_of_core)

    def _start(
        self,
        plan: Plan,
        catalog: Mapping[str, Table],
        deadline: Deadline | None,
        tracer=None,
        batch_rows: int | None = None,
        out_of_core: bool | None = None,
    ) -> QueryRun:
        """The one way a validated plan starts running: :meth:`execute`
        (first attempt and GPU retry tiers) and :meth:`start_query` both
        come through here.  ``None`` overrides mean the engine's own."""
        physical = self._compile(plan, out_of_core)
        if batch_rows is None:
            batch_rows = self.batch_rows
        if physical.out_of_core and batch_rows is None:
            batch_rows = OOC_RETRY_BATCH_ROWS
        ctx = ExecutionContext(
            device=self.device,
            buffer_manager=self.buffer_manager,
            catalog=catalog,
            registry=self.registry,
            batch_rows=batch_rows,
            tracer=tracer if tracer is not None else self.tracer,
        )
        return PipelineExecutor(ctx).start(physical, deadline=deadline)

    def _compile(self, plan: Plan, out_of_core: bool | None = None) -> PhysicalPlan:
        if out_of_core is None:
            out_of_core = self.out_of_core
        return compile_plan(plan, out_of_core=out_of_core, fusion=self.fusion)

    def estimate(self, plan: Plan, catalog: Mapping[str, Table]):
        """Price ``plan`` the way this engine runs it — spill waves when it
        is out-of-core, fused chains when it fuses (the
        :class:`~repro.sched.estimator.PlanEstimate` serving admits on)."""
        from ..sched.estimator import estimate_plan  # lazy: sched imports core

        return estimate_plan(
            plan, catalog, self.device, out_of_core=self.out_of_core, fusion=self.fusion
        )

    def explain_physical(self, plan: Plan) -> str:
        """Render the pipeline decomposition this engine runs the plan as."""
        return self._compile(plan).explain()

    def explain_analyze(self, plan: Plan, catalog: Mapping[str, Table]) -> str:
        """Execute the plan and render per-operator simulated timings
        (EXPLAIN ANALYZE).  The result table is discarded."""
        self.execute(plan, catalog)
        if self.last_profile is None:
            return "(query fell back to the host engine; no GPU profile)"
        return self.last_profile.explain_analyze()

    # -- maintenance ----------------------------------------------------------

    def warm_cache(self, catalog: Mapping[str, Table], names=None) -> None:
        """Pre-load tables into the caching region (the paper reports hot
        runs; benchmarks call this before timing)."""
        for name in names if names is not None else catalog:
            self.buffer_manager.get_table(name, catalog[name])
        # "Warm" means fully resident: join any overlapped load chunks now
        # so the first timed query never pays for warm-up copies.
        self.buffer_manager.complete_loads()

    def drop_cached(self, name: str) -> None:
        self.buffer_manager.drop(name)

    def stats(self) -> dict:
        report = {
            "queries_executed": self.queries_executed,
            "fallbacks": self.fallback.fallback_count,
            "device": self.device.spec.name,
            "kernel_count": self.device.kernel_count,
        }
        report.update(self.buffer_manager.stats())
        return report
