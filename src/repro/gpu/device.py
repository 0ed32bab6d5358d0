"""The simulated execution device.

A :class:`Device` bundles everything the engine needs from "a GPU":

* a :class:`~repro.gpu.clock.SimClock` that kernel launches and transfers
  advance;
* a **caching region** (plain byte accounting — Sirius pre-allocates it and
  fills it with cached input columns);
* a **processing region** managed by an RMM-style
  :class:`~repro.gpu.rmm.PoolAllocator` for intermediates;
* the :class:`~repro.gpu.costmodel.KernelCostModel` for that device's spec;
* host-interconnect transfer charging (PCIe / NVLink-C2C).

CPU devices use the same machinery with CPU-calibrated specs, which is how
the cost-normalised baselines of Figure 4 are produced.

The memory split follows the paper's evaluation setup: *"We dedicate 50% of
each GPU memory for data caching, and the other half for data processing."*
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..obs import NULL_TRACER
from .buffer import DeviceBuffer
from .clock import SimClock
from .costmodel import CostBreakdown, KernelCostModel
from .memory import DeviceMemory, OutOfDeviceMemory
from .rmm import Allocation, PoolAllocator
from .specs import GB, DeviceSpec

__all__ = ["Device", "FusedKernelScope", "OutOfDeviceMemory", "TransientKernelError"]

# A transient kernel fault is relaunched this many times before it is
# treated as permanent and surfaced to the fallback machinery.
KERNEL_RELAUNCH_LIMIT = 3


class TransientKernelError(RuntimeError):
    """A kernel launch kept failing past the relaunch limit.

    Individual transient faults (the ECC-hiccup / driver-retry class) are
    absorbed by relaunching — each wasted attempt still charges the
    simulated clock — so only a *persistently* failing kernel raises."""


class FusedKernelScope:
    """Open recording scope for one fused-kernel region.

    While active, :meth:`Device.launch` records each constituent kernel
    here instead of charging the clock; the scope owner declares the
    region's external traffic via :meth:`external` and, on clean exit,
    the device charges one fused launch for the whole run (see
    :meth:`KernelCostModel.fused_cost`).  Suppressed launches still
    return their standalone :class:`CostBreakdown` so kernel-internal
    callers observe the usual interface.
    """

    __slots__ = ("cost_model", "parts", "ext_in", "ext_out")

    def __init__(self, cost_model: KernelCostModel):
        self.cost_model = cost_model
        self.parts: list[tuple[str, int, int, int, int | None]] = []
        self.ext_in = 0
        self.ext_out = 0

    def record(
        self,
        kclass: str,
        bytes_in: int,
        bytes_out: int,
        rows: int,
        num_groups: int | None = None,
    ) -> CostBreakdown:
        self.parts.append((kclass, int(bytes_in), int(bytes_out), int(rows), num_groups))
        return self.cost_model.kernel_cost(kclass, bytes_in, bytes_out, rows, num_groups)

    def external(self, bytes_in: int, bytes_out: int) -> None:
        """Declare the bytes the fused region reads/writes from HBM."""
        self.ext_in = int(bytes_in)
        self.ext_out = int(bytes_out)

    @property
    def interior_bytes(self) -> int:
        """Total traffic the constituent kernels would have materialised."""
        return sum(p[1] + p[2] for p in self.parts)


class Device:
    """One simulated CPU or GPU execution device."""

    def __init__(
        self,
        spec: DeviceSpec,
        clock: SimClock | None = None,
        caching_fraction: float = 0.5,
        memory_limit_gb: float | None = None,
    ):
        """
        Args:
            spec: Hardware parameters (see :mod:`repro.gpu.specs`).
            clock: Shared simulated clock; a private one is created if
                omitted (single-device runs).
            caching_fraction: Fraction of device memory given to the data
                caching region; the rest becomes the processing pool.
            memory_limit_gb: Override the spec's memory size (useful for
                forcing OOM/spill paths in tests).
        """
        if not 0.0 < caching_fraction < 1.0:
            raise ValueError("caching_fraction must be in (0, 1)")
        self.spec = spec
        self.clock = clock if clock is not None else SimClock()
        self.cost_model = KernelCostModel(spec)
        total = int((memory_limit_gb if memory_limit_gb is not None else spec.memory_gb) * GB)
        cache_bytes = int(total * caching_fraction)
        self.caching_region = DeviceMemory(cache_bytes, region="caching")
        self.processing_pool = PoolAllocator(total - cache_bytes)
        self.kernel_count = 0
        self.htod_bytes = 0
        self.dtoh_bytes = 0
        self.disk_write_bytes = 0
        self.disk_read_bytes = 0
        # Fault-injection hooks (attached by repro.faults.FaultInjector;
        # None = healthy device, zero overhead on the hot path).
        self.fault_injector = None
        self.fault_rank = 0
        self.kernel_relaunches = 0
        # Pipeline fusion: while a FusedKernelScope is open, launches are
        # recorded instead of charged (None = normal per-kernel charging).
        self._fused_scope = None
        self.fused_kernel_count = 0
        self.fusion_saved_bytes = 0
        # Multi-query serving: the scheduler tags the query whose task is
        # currently stepping so processing-pool allocations carry an owner
        # (per-query reclamation) and cached tables record their last user
        # (contention-aware spill).  None = single-query mode, zero change.
        self.query_owner = None
        # Observability sink (swapped for a real Tracer by the engine that
        # owns this device; the null default records nothing).
        self.tracer = NULL_TRACER

    # -- sanitizer wiring -------------------------------------------------------

    def attach_sanitizer(self, sanitizer) -> None:
        """Wire a :class:`~repro.analysis.sanitizers.Sanitizer` into this
        device's clock (happens-before graph) and processing pool (shadow
        ledger).  Devices without one carry ``None`` hooks and pay nothing."""
        self.clock.sanitizer = sanitizer
        self.processing_pool.sanitizer = sanitizer

    # -- kernel execution -----------------------------------------------------

    def launch(
        self,
        kclass: str,
        bytes_in: int,
        bytes_out: int,
        rows: int,
        num_groups: int | None = None,
    ) -> CostBreakdown:
        """Charge one kernel launch to the simulated clock and return its
        cost breakdown.  The caller performs the actual NumPy work.

        Inside an open :meth:`fused_kernel` scope the launch is recorded
        instead of charged — the whole fused region bills once on exit.
        """
        scope = self._fused_scope
        if scope is not None:
            return scope.record(kclass, bytes_in, bytes_out, rows, num_groups)
        cost = self.cost_model.kernel_cost(kclass, bytes_in, bytes_out, rows, num_groups)
        return self._charge_launch(kclass, cost)

    def _charge_launch(self, kclass: str, cost: CostBreakdown) -> CostBreakdown:
        seconds = cost.total
        injector = self.fault_injector
        if injector is not None:
            seconds *= injector.compute_slowdown(self.fault_rank, self.clock.now)
            relaunches = 0
            while injector.take_kernel_fault(self.fault_rank, self.clock.now):
                # The failed attempt ran (and is paid for) before the
                # error surfaced; the relaunch is charged below.
                self.clock.advance(seconds)
                self.kernel_count += 1
                self.kernel_relaunches += 1
                relaunches += 1
                self.tracer.event(
                    "kernel-relaunch",
                    sim_time=self.clock.now,
                    kclass=kclass,
                    rank=self.fault_rank,
                    attempt=relaunches,
                )
                if relaunches >= KERNEL_RELAUNCH_LIMIT:
                    raise TransientKernelError(
                        f"kernel {kclass} failed {relaunches} consecutive "
                        f"relaunches on rank {self.fault_rank}"
                    )
        self.clock.advance(seconds)
        self.kernel_count += 1
        return cost

    @contextmanager
    def fused_kernel(self):
        """Fuse every :meth:`launch` inside the ``with`` block into one
        charged kernel.  The caller must declare the region's external
        traffic via :meth:`FusedKernelScope.external`; on a clean exit
        the fused cost is charged (fault injection included) and the
        saved interior traffic is accumulated in ``fusion_saved_bytes``.
        On an exception nothing is charged — the degradation machinery
        re-runs the pipeline from scratch.
        """
        scope = FusedKernelScope(self.cost_model)
        self._fused_scope = scope
        try:
            yield scope
        except BaseException:
            self._fused_scope = None
            raise
        self._fused_scope = None
        if not scope.parts:
            return
        cost = self.cost_model.fused_cost(scope.parts, scope.ext_in, scope.ext_out)
        self._charge_launch("fused", cost)
        self.fused_kernel_count += 1
        saved = scope.interior_bytes - (scope.ext_in + scope.ext_out)
        self.fusion_saved_bytes += max(saved, 0)

    # -- transfers ---------------------------------------------------------------

    def htod(self, nbytes: int, pinned: bool = False) -> float:
        """Charge a host-to-device transfer; returns the simulated seconds.

        ``pinned`` prices the copy at the page-locked host-memory rate
        (§3.4 spill traffic); identical to pageable at the default spec.
        """
        seconds = self.cost_model.transfer_cost(nbytes, pinned=pinned)
        self.clock.advance(seconds, category="transfer")
        self.htod_bytes += nbytes
        return seconds

    def dtoh(self, nbytes: int, pinned: bool = False) -> float:
        """Charge a device-to-host transfer; returns the simulated seconds."""
        seconds = self.cost_model.transfer_cost(nbytes, pinned=pinned)
        self.clock.advance(seconds, category="transfer")
        self.dtoh_bytes += nbytes
        return seconds

    def disk_write(self, nbytes: int) -> float:
        """Charge a pinned-host -> simulated-disk write (out-of-core
        partition demotion once the pinned-host budget overflows)."""
        seconds = self.cost_model.disk_transfer_cost(nbytes)
        self.clock.advance(seconds, category="transfer")
        self.disk_write_bytes += nbytes
        return seconds

    def disk_read(self, nbytes: int) -> float:
        """Charge a simulated-disk -> pinned-host read (partition
        promotion on first re-use after a disk demotion)."""
        seconds = self.cost_model.disk_transfer_cost(nbytes)
        self.clock.advance(seconds, category="transfer")
        self.disk_read_bytes += nbytes
        return seconds

    # -- asynchronous copies (the CUDA copy-stream analogue) -------------------

    @property
    def copy_stream(self):
        """The device's dedicated copy stream (created on first use)."""
        return self.clock.stream("copy")

    def htod_async(self, nbytes: int, pinned: bool = False) -> float:
        """Issue a host-to-device copy on the copy stream.

        Returns the copy's completion timestamp (a stream event) without
        advancing the host clock; callers synchronise later through
        :meth:`wait_copies`, exposing only the un-overlapped remainder.
        """
        seconds = self.cost_model.transfer_cost(nbytes, pinned=pinned)
        start, end = self.copy_stream.issue(seconds)
        self.htod_bytes += nbytes
        if self.tracer.enabled:
            self.tracer.record_span(
                "htod.async", "stream", start=start, end=end,
                bytes=nbytes, stream="copy",
            )
        return end

    def dtoh_async(self, nbytes: int, pinned: bool = False) -> float:
        """Issue a device-to-host copy on the copy stream; see
        :meth:`htod_async`."""
        seconds = self.cost_model.transfer_cost(nbytes, pinned=pinned)
        start, end = self.copy_stream.issue(seconds)
        self.dtoh_bytes += nbytes
        if self.tracer.enabled:
            self.tracer.record_span(
                "dtoh.async", "stream", start=start, end=end,
                bytes=nbytes, stream="copy",
            )
        return end

    def wait_copies(self, until: float | None = None) -> float:
        """Join the copy stream (CUDA event wait): advance the host clock
        to ``until`` (default: the stream frontier) and return the exposed
        wait seconds, attributed to ``"transfer-wait"``."""
        return self.copy_stream.wait(until, category="transfer-wait")

    # -- buffers ---------------------------------------------------------------

    def new_buffer(self, array: np.ndarray, region: str = "processing") -> DeviceBuffer:
        """Place ``array`` on the device, accounting its bytes to ``region``.

        Raises:
            OutOfDeviceMemory: When the region cannot hold the bytes.
        """
        array = np.ascontiguousarray(array)
        size = int(array.nbytes)
        injector = self.fault_injector
        if (
            injector is not None
            and region == "processing"
            and injector.has_pool_pressure
        ):
            # A memory-pressure window shrinks the pool's soft limit for
            # its duration; allocations past the shrunken limit walk the
            # allocator's pressure-callback path (spill, then retry)
            # before OOM surfaces.
            factor = injector.pool_pressure_factor(self.fault_rank, self.clock.now)
            self.processing_pool.soft_limit = (
                int(self.processing_pool.capacity * factor) if factor < 1.0 else None
            )
        if self.fault_injector is not None and self.fault_injector.take_oom(
            self.fault_rank, self.clock.now
        ):
            available = (
                self.processing_pool.stats().capacity - self.processing_pool.stats().in_use
                if region == "processing"
                else self.caching_region.available
            )
            raise OutOfDeviceMemory(size, available, f"{region} (injected spike)")
        if region == "processing":
            allocation = self.processing_pool.allocate(size, owner=self.query_owner)
            self.tracer.count("device.alloc_bytes", size)
            self.tracer.gauge("device.pool_in_use", self.processing_pool.in_use)
            return DeviceBuffer(array, self, region, allocation)
        if region == "caching":
            self.caching_region.allocate(size)
            self.tracer.count("device.cache_bytes", size)
            self.tracer.gauge("device.cache_in_use", self.caching_region.used)
            return DeviceBuffer(array, self, region, None)
        raise ValueError(f"unknown memory region {region!r}")

    def release_buffer(self, buffer: DeviceBuffer, allocation: Allocation | None) -> None:
        """Called by :meth:`DeviceBuffer.free`; not for direct use."""
        if buffer.region == "processing":
            if allocation is not None:
                self.processing_pool.free(allocation)
        else:
            self.caching_region.free(buffer.nbytes)

    def reset_processing_pool(self) -> None:
        """Recycle the RMM pool between queries (all intermediates freed)."""
        self.processing_pool.reset()

    # -- introspection --------------------------------------------------------

    @property
    def is_gpu(self) -> bool:
        return self.spec.kind == "gpu"

    def memory_report(self) -> dict[str, int]:
        """Snapshot of both regions for diagnostics and tests."""
        pool = self.processing_pool.stats()
        return {
            "caching_capacity": self.caching_region.capacity,
            "caching_used": self.caching_region.used,
            "caching_peak": self.caching_region.peak,
            "processing_capacity": pool.capacity,
            "processing_used": pool.in_use,
            "processing_peak": pool.peak_in_use,
        }

    def __repr__(self) -> str:
        return f"Device({self.spec.name})"
