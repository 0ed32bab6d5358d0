"""Sirius' buffer manager (§3.2.3 of the paper).

Responsibilities reproduced here:

* **Data caching region** — pre-allocated device memory holding input
  tables.  The first (cold) access to a host table pays the host->device
  copy; subsequent (hot) accesses are free, which is the paper's
  measurement methodology ("the numbers reported are the hot runs").
* **Data processing region** — the RMM pool on the device; kernels already
  allocate from it via :class:`~repro.gpu.device.Device`.
* **Format conversions** — Sirius uses ``uint64`` row ids while libcudf
  uses ``int32``; converting between them is the one non-zero-copy step
  and is charged as a streaming kernel here.  Host<->device table format
  conversion is a deep copy that happens on the cold run only.
* **Out-of-core extension (§3.4)** — when the caching region cannot hold a
  table, the manager spills the least-recently-used cached tables to
  *pinned host memory*; reading a spilled table later streams it back over
  the interconnect at the pinned rate (slower than a hot hit, but
  execution proceeds instead of failing).
* **Copy/compute overlap (``overlap=True``)** — cold loads are chunked and
  double-buffered on the device's copy stream: the first chunk is paid
  synchronously (the consuming pipeline needs data to start), the
  remaining chunks stream asynchronously behind the pipeline's kernels,
  and the host joins the stream at the pipeline-end sync point
  (:meth:`BufferManager.complete_loads`).  The executor additionally
  prefetches the *next* pipeline's base table via :meth:`prefetch`, whose
  copy is issued entirely on the stream.  Off by default — the default
  path is byte-identical to the synchronous loader.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..columnar import Table
from ..gpu.costmodel import KernelClass
from ..gpu.device import Device
from ..gpu.memory import OutOfDeviceMemory
from ..kernels import GTable

__all__ = ["BufferManager", "CacheEntry", "SpillFragment", "DEFAULT_LOAD_CHUNK_BYTES"]

# Double-buffering granularity of overlapped cold loads: large enough to
# amortise the per-chunk DMA latency, small enough that the first
# (synchronous) chunk is cheap.
DEFAULT_LOAD_CHUNK_BYTES = 1 << 20


class CacheEntry:
    """A cached table: either device-resident or spilled to pinned host."""

    __slots__ = (
        "name",
        "gtable",
        "host_table",
        "nbytes",
        "location",
        "last_user",
        "ready_at",
    )

    def __init__(self, name: str, gtable: GTable, host_table: Table):
        self.name = name
        self.gtable = gtable
        self.host_table = host_table
        self.nbytes = gtable.nbytes
        self.location = "device"
        # Query that touched the entry last (device.query_owner); used by
        # contention-aware eviction under concurrent serving.
        self.last_user = None
        # Overlapped loads: stream timestamp at which the *first* chunk has
        # landed — the earliest time a pipelined consumer may start reading.
        self.ready_at = 0.0


class SpillFragment:
    """An intermediate-result partition tracked by the out-of-core spiller.

    Unlike :class:`CacheEntry` (base tables in the caching region), a
    fragment lives in the *processing pool* and walks the full tiered
    store: device -> pinned host (async, on the copy stream) -> simulated
    disk (when the pinned budget overflows).
    """

    __slots__ = ("name", "gtable", "host_table", "nbytes", "location", "event")

    def __init__(self, name: str, gtable: GTable):
        self.name = name
        self.gtable = gtable
        self.host_table = None  # snapshot taken on first spill
        self.nbytes = gtable.nbytes
        self.location = "device"  # "device" | "pinned" | "disk"
        # Copy-stream completion timestamp of the outstanding spill write;
        # joined before the host copy is promoted or demoted.
        self.event: float | None = None


class BufferManager:
    """Owns the caching region contents and the format-conversion paths."""

    def __init__(self, device: Device, overlap: bool = False):
        """
        Args:
            device: The owning device.  LRU tables spill to its pinned
                host memory when the caching region fills (§3.4
                out-of-core extension).
            overlap: Chunk + double-buffer cold loads on the device's copy
                stream so transfers overlap the consuming pipeline's
                kernels, and honour executor prefetch requests.  Off by
                default — the synchronous loader is byte-identical to the
                seed.
        """
        self.device = device
        self.overlap = overlap
        self._cache: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.cold_loads = 0
        self.hot_hits = 0
        self.spills = 0
        self.unspills = 0
        self.prefetches = 0
        self.prefetch_hits = 0
        self.pinned_host_bytes = 0
        # In-flight copy-stream events (full-completion timestamps):
        # ``_in_flight`` holds prefetched entries no query has consumed yet;
        # ``_must_sync`` holds consumed entries the host must join before
        # the consuming pipeline finalises (complete_loads).
        self._in_flight: dict[str, float] = {}
        self._must_sync: dict[str, float] = {}
        # Contention-aware spill (multi-query serving): when the scheduler
        # installs its live-query set here, eviction prefers LRU entries
        # whose last user is *not* an in-flight query, so one query's cold
        # load does not thrash tables another admitted query is actively
        # scanning.  None (default) = plain LRU, identical to the seed.
        self.active_queries: set | None = None
        self.contention_avoided_evictions = 0
        # Out-of-core intermediate-result spill entries (§3.4 extended to
        # operator state): partitioned joins/group-bys register build and
        # agg partitions here; the pool's pressure callback spills them
        # LRU-first.  Empty unless the engine runs out-of-core.
        self._fragments: "OrderedDict[str, SpillFragment]" = OrderedDict()
        # Pinned-host bytes the fragments may hold before the oldest
        # pinned fragment is demoted to the simulated disk tier.  Every
        # engine sets it to its pool's capacity; None = unbounded.
        self.pinned_fragment_budget: int | None = None
        self.fragment_pinned_bytes = 0
        self.fragment_spills = 0
        self.fragment_unspills = 0
        self.spilled_fragment_bytes = 0
        self.unspilled_fragment_bytes = 0
        self.pressure_spills = 0
        self.disk_spills = 0
        self.disk_spilled_bytes = 0
        # Monotone sequence handing each query run a unique fragment
        # namespace — slot names repeat across concurrent queries.
        self._fragment_ns_seq = 0
        self.disk_fragment_bytes = 0
        # Runtime-invariant observer (attached by the sanitizer layer;
        # None = unsanitized run, zero overhead on the hot path).
        self.sanitizer = None

    # -- caching region -------------------------------------------------------

    def get_table(self, name: str, host_table: Table) -> GTable:
        """Return the device-resident table, loading/caching on first use."""
        entry = self._cache.get(name)
        if entry is not None:
            event = self._in_flight.pop(name, None)
            if event is not None:
                # Prefetch hit: the copy was issued on the stream before the
                # consumer asked.  Pipelined consumption may begin once the
                # first chunk has landed; the tail chunks join at the
                # pipeline-end sync point like any overlapped load.
                self._cache.move_to_end(name)
                entry.last_user = self.device.query_owner
                self.device.wait_copies(entry.ready_at)
                self._must_sync[name] = event
                self.prefetch_hits += 1
                if self.sanitizer is not None:
                    self.sanitizer.on_entry_read(entry, event)
                return entry.gtable
            self._cache.move_to_end(name)
            entry.last_user = self.device.query_owner
            if entry.location == "pinned":
                self._unspill(entry)
            self.hot_hits += 1
            if self.sanitizer is not None:
                self.sanitizer.on_entry_read(entry, None)
            return entry.gtable
        gtable, event = self._load(name, host_table)
        entry = CacheEntry(name, gtable, host_table)
        entry.last_user = self.device.query_owner
        self._cache[name] = entry
        if event is not None:
            self._must_sync[name] = event
        self.cold_loads += 1
        if self.sanitizer is not None:
            self.sanitizer.on_entry_read(entry, event)
        return gtable

    def prefetch(self, name: str, host_table: Table) -> bool:
        """Issue a fully-asynchronous cold load of ``name`` on the copy
        stream (the executor's scan-prefetch hook for the next pipeline's
        base table).

        Best-effort: a no-op unless overlap mode is on, the table is not
        already cached, and the table fits the caching region *without*
        evicting (prefetch must never thrash tables the running pipeline
        still needs).  Returns True when the prefetch was issued.
        """
        if not self.overlap or name in self._cache:
            return False
        try:
            gtable = GTable.from_host(self.device, host_table, "caching", charge=None)
        except OutOfDeviceMemory:
            return False
        first_event = None
        event = self.device.clock.now
        remaining = host_table.nbytes
        while remaining > 0:
            nbytes = min(DEFAULT_LOAD_CHUNK_BYTES, remaining)
            event = self.device.htod_async(nbytes)
            if first_event is None:
                first_event = event
            remaining -= nbytes
        entry = CacheEntry(name, gtable, host_table)
        entry.last_user = self.device.query_owner
        entry.ready_at = first_event if first_event is not None else event
        self._cache[name] = entry
        self._in_flight[name] = event
        self.cold_loads += 1
        self.prefetches += 1
        if self.sanitizer is not None:
            self.sanitizer.on_prefetch(entry, event)
        return True

    def complete_loads(self) -> float:
        """Join the copy stream for every overlapped load consumed since
        the last call (the pipeline-end synchronisation point).  Returns
        the exposed wait seconds; zero when the copies finished behind the
        pipeline's kernels (fully hidden) or nothing is pending."""
        if not self._must_sync:
            return 0.0
        target = max(self._must_sync.values())
        self._must_sync.clear()
        return self.device.wait_copies(target)

    def _load(self, name: str, host_table: Table) -> tuple[GTable, float | None]:
        """Cold path: deep-copy the host table into the caching region.

        Returns the device table plus, for overlapped loads, the copy
        stream's full-completion event timestamp (None for synchronous
        loads)."""
        while True:
            try:
                if self.overlap:
                    return self._load_overlapped(host_table)
                return GTable.from_host(self.device, host_table, region="caching"), None
            except OutOfDeviceMemory:
                if not self._evict_one():
                    raise

    def _load_overlapped(self, host_table: Table) -> tuple[GTable, float]:
        """Chunked double-buffered cold load: the first chunk is charged
        synchronously (the pipeline cannot start on nothing), the remaining
        chunks are issued on the copy stream and overlap the consuming
        pipeline's kernels until :meth:`complete_loads`."""
        gtable = GTable.from_host(self.device, host_table, "caching", charge=None)
        total = host_table.nbytes
        first = min(DEFAULT_LOAD_CHUNK_BYTES, total)
        if first > 0:
            self.device.htod(first)
        event = self.device.clock.now
        remaining = total - first
        while remaining > 0:
            nbytes = min(DEFAULT_LOAD_CHUNK_BYTES, remaining)
            event = self.device.htod_async(nbytes)
            remaining -= nbytes
        return gtable, event

    def _quiescent(self, name: str) -> bool:
        """Whether no copy-stream chunks are still landing in ``name``."""
        return name not in self._in_flight and name not in self._must_sync

    def _evict_one(self, keep: CacheEntry | None = None) -> bool:
        """Spill one device-resident entry to make room; False if none.
        ``keep`` — the entry being unspilled — is never the victim.

        Plain LRU in single-query mode.  Under concurrent serving
        (``active_queries`` installed) the first pass prefers LRU entries
        last touched by a query that is no longer in flight; only when
        every resident table belongs to a live query does it fall back to
        plain LRU (progress beats fairness).

        Entries with chunks still landing on the copy stream (prefetches
        and overlapped loads) are only victims of last resort: evicting
        one forces a host-blocking stream join *and* throws away the copy
        just issued, so any quiescent resident entry is preferred.  When
        an in-flight entry really is the only candidate, :meth:`_spill`
        syncs its outstanding chunks before freeing the device bytes.
        """
        for require_quiescent in (True, False):
            candidates = [
                entry
                for entry in self._cache.values()
                if entry is not keep
                and entry.location == "device"
                and (not require_quiescent or self._quiescent(entry.name))
            ]
            if self.active_queries is not None:
                for entry in candidates:
                    if entry.last_user not in self.active_queries:
                        self._spill(entry)
                        self.contention_avoided_evictions += 1
                        return True
            if candidates:
                self._spill(candidates[0])
                return True
        return False

    def _spill(self, entry: CacheEntry) -> None:
        """Move a cached table to pinned host memory (device bytes freed).

        §3.4 spills into *pinned* host buffers, so the copy streams at the
        pinned interconnect rate."""
        self._sync_in_flight(entry.name)
        if self.sanitizer is not None:
            self.sanitizer.on_entry_release(entry, "spill")
        self.device.dtoh(entry.nbytes, pinned=True)
        entry.gtable.free()
        entry.gtable = None
        entry.location = "pinned"
        self.pinned_host_bytes += entry.nbytes
        self.spills += 1

    def _unspill(self, entry: CacheEntry) -> None:
        """Stream a spilled table back to the device caching region (from
        pinned host memory, at the pinned rate)."""
        while True:
            try:
                entry.gtable = GTable.from_host(
                    self.device, entry.host_table, "caching", charge="pinned"
                )
                break
            except OutOfDeviceMemory:
                if not self._evict_one(keep=entry):
                    raise
        entry.location = "device"
        self.pinned_host_bytes -= entry.nbytes
        self.unspills += 1

    def _sync_in_flight(self, name: str) -> None:
        """Join the copy stream for one entry's outstanding chunks (memory
        being written cannot be freed, spilled, or dropped mid-copy)."""
        pending = self._in_flight.pop(name, None)
        consumed = self._must_sync.pop(name, None)
        events = [e for e in (pending, consumed) if e is not None]
        if events:
            self.device.wait_copies(max(events))

    def cached_tables(self) -> list[str]:
        return list(self._cache)

    def drop(self, name: str) -> None:
        """Remove a table from the cache (used by the exchange layer's
        temporary-table deregistration).

        Device-resident entries free their device bytes; spilled entries
        release their pinned host bytes (the accounting leak fixed here:
        dropping a spilled entry previously left ``pinned_host_bytes``
        inflated forever)."""
        entry = self._cache.pop(name, None)
        if entry is None:
            return
        self._sync_in_flight(name)
        if self.sanitizer is not None:
            self.sanitizer.on_entry_release(entry, "drop")
        if entry.location == "device" and entry.gtable is not None:
            entry.gtable.free()
        elif entry.location == "pinned":
            self.pinned_host_bytes -= entry.nbytes

    def clear(self) -> None:
        for name in list(self._cache):
            self.drop(name)

    # -- intermediate-result (partition) spill entries --------------------------

    def fragment_namespace(self) -> str:
        """Hand out a namespace prefix unique to one query run, so the
        slot-derived fragment names of concurrent queries never collide."""
        self._fragment_ns_seq += 1
        return f"q{self._fragment_ns_seq}"

    def put_fragment(self, name: str, gtable: GTable) -> None:
        """Register a device-resident intermediate result (a join build or
        group-by partition) as a spillable fragment.

        The fragment stays in the processing pool until memory pressure
        (or an explicit :meth:`spill_fragment`) pushes it down the tiered
        store.  Re-registering a name replaces the old fragment.
        """
        if name in self._fragments:
            self.drop_fragment(name)
        self._fragments[name] = SpillFragment(name, gtable)

    def fragment_location(self, name: str) -> str:
        return self._fragments[name].location

    def get_fragment(self, name: str) -> GTable:
        """Return the fragment's device table, promoting it back up the
        tiered store (disk -> pinned -> device) if it was spilled."""
        frag = self._fragments[name]
        self._fragments.move_to_end(name)
        if frag.location == "device":
            if self.sanitizer is not None:
                self.sanitizer.on_fragment_read(frag)
            return frag.gtable
        if frag.location == "disk":
            self.device.disk_read(frag.nbytes)
            frag.location = "pinned"
            self.disk_fragment_bytes -= frag.nbytes
            self.fragment_pinned_bytes += frag.nbytes
        if frag.event is not None:
            # The spill write must have fully landed before the host copy
            # is authoritative.
            self.device.wait_copies(frag.event)
            frag.event = None
        frag.gtable = GTable.from_host(self.device, frag.host_table, charge="pinned")
        frag.location = "device"
        self.fragment_pinned_bytes -= frag.nbytes
        self.fragment_unspills += 1
        self.unspilled_fragment_bytes += frag.nbytes
        self.device.tracer.count("spill.fragment_unspilled_bytes", frag.nbytes)
        if self.sanitizer is not None:
            self.sanitizer.on_fragment_read(frag)
        return frag.gtable

    def spill_fragment(self, name: str) -> int:
        """Spill one device-resident fragment to pinned host memory.

        The device->host write is issued on the copy stream so it hides
        behind the query's compute (PR 5's overlap machinery); the pool
        bytes are released immediately, which is the entire point under
        pressure.  Returns the pool bytes freed (0 if not device-resident).
        """
        frag = self._fragments.get(name)
        if frag is None or frag.location != "device":
            return 0
        if frag.host_table is None:
            frag.host_table = frag.gtable.to_host(charge_transfer=False)
        device = self.device
        frag.event = device.dtoh_async(frag.nbytes, pinned=True)
        if self.sanitizer is not None:
            self.sanitizer.on_fragment_spill(name, frag.event)
        frag.gtable.free()
        frag.gtable = None
        frag.location = "pinned"
        self.fragment_pinned_bytes += frag.nbytes
        self.fragment_spills += 1
        self.spilled_fragment_bytes += frag.nbytes
        device.tracer.count("spill.fragment_spilled_bytes", frag.nbytes)
        self._maybe_demote_to_disk()
        return frag.nbytes

    def drop_fragment(self, name: str) -> None:
        """Release a fragment from whichever tier holds it."""
        frag = self._fragments.pop(name, None)
        if frag is None:
            return
        if self.sanitizer is not None:
            # A pinned fragment dropped with an outstanding spill write is
            # a stream-ordered release (the staging buffer retires behind
            # the write and is never reused before it) — not a race.
            self.sanitizer.on_fragment_drop(name)
        if frag.location == "device" and frag.gtable is not None:
            frag.gtable.free()
        elif frag.location == "pinned":
            self.fragment_pinned_bytes -= frag.nbytes
        elif frag.location == "disk":
            self.disk_fragment_bytes -= frag.nbytes

    def clear_fragments(self) -> None:
        for name in list(self._fragments):
            self.drop_fragment(name)

    def drop_namespace(self, ns: str) -> None:
        """Release every fragment a query run registered (end-of-query
        cleanup; a no-op when the run already retired them all)."""
        prefix = ns + "/"
        for name in list(self._fragments):
            if name.startswith(prefix):
                self.drop_fragment(name)
        if self.sanitizer is not None:
            self.sanitizer.check_namespace_dropped(self, ns)

    def handle_pressure(self, needed: int) -> bool:
        """Processing-pool pressure callback (see :attr:`~repro.gpu.rmm
        .PoolAllocator.pressure_callback`): spill LRU device-resident
        fragments until ``needed`` bytes are released.  Returns True when
        anything was spilled — the failed allocation then retries instead
        of raising OOM.
        """
        freed = 0
        for name in list(self._fragments):
            if self._fragments[name].location != "device":
                continue
            freed += self.spill_fragment(name)
            self.pressure_spills += 1
            if freed >= needed:
                break
        return freed > 0

    def _maybe_demote_to_disk(self) -> None:
        """Demote LRU pinned fragments to the simulated disk tier while the
        pinned staging budget is exceeded."""
        if self.pinned_fragment_budget is None:
            return
        while self.fragment_pinned_bytes > self.pinned_fragment_budget:
            victim = None
            for frag in self._fragments.values():
                if frag.location == "pinned":
                    victim = frag
                    break
            if victim is None:
                return
            if victim.event is not None:
                self.device.wait_copies(victim.event)
                victim.event = None
            self.device.disk_write(victim.nbytes)
            victim.location = "disk"
            self.fragment_pinned_bytes -= victim.nbytes
            self.disk_fragment_bytes += victim.nbytes
            self.disk_spills += 1
            self.disk_spilled_bytes += victim.nbytes

    def protected_columns(self):
        """Device-resident columns owned by the buffer manager (cached
        tables and live fragments).  The out-of-core executor's chunk
        disposal must never free these: streaming operators may pass
        cached columns through into chunks by reference."""
        cols = []
        for entry in self._cache.values():
            if entry.location == "device" and entry.gtable is not None:
                cols.extend(entry.gtable.columns)
        for frag in self._fragments.values():
            if frag.location == "device" and frag.gtable is not None:
                cols.extend(frag.gtable.columns)
        return cols

    def spill_stats(self) -> dict:
        """Counters of the intermediate-result spill tier, snapshot by the
        executor into the profile's spill section."""
        return {
            "fragment_spills": self.fragment_spills,
            "fragment_unspills": self.fragment_unspills,
            "spilled_bytes": self.spilled_fragment_bytes,
            "unspilled_bytes": self.unspilled_fragment_bytes,
            "pressure_spills": self.pressure_spills,
            "disk_spills": self.disk_spills,
            "disk_spilled_bytes": self.disk_spilled_bytes,
            "pinned_fragment_bytes": self.fragment_pinned_bytes,
            "disk_fragment_bytes": self.disk_fragment_bytes,
            "live_fragments": len(self._fragments),
        }

    # -- format conversion ------------------------------------------------------

    def engine_indices_to_kernel(self, indices: np.ndarray) -> np.ndarray:
        """Convert Sirius' uint64 row ids to libcudf's int32.

        The return half of a gather map's round trip, a streaming kernel
        over both buffers.  A probe calls it inside its output region, so
        it is one of the region's parts.  The sentinel ``UINT64_MAX`` is
        ``-1`` in two's complement; an id past int32 raises
        ``OverflowError`` before anything is charged or recorded.
        """
        if indices.dtype != np.uint64:
            raise TypeError(f"engine indices must be uint64, got {indices.dtype}")
        signed = indices.view(np.int64)
        if len(signed) and (signed.max() > np.iinfo(np.int32).max or signed.min() < -1):
            raise OverflowError("row index exceeds int32 range of the kernel library")
        self.device.launch(
            KernelClass.STREAM, indices.nbytes, indices.nbytes // 2, len(indices)
        )
        return signed.astype(np.int32)

    def kernel_indices_to_engine(self, indices: np.ndarray) -> np.ndarray:
        """Convert libcudf int32 gather maps back to uint64 engine row ids.

        This is the conversion the paper singles out as *not* zero-copy
        (§3.2.3), charged once per gather map as a streaming kernel over
        both buffers, as a launch of its own even inside an open fused
        region.  ``-1`` (no-match sentinel) maps to ``UINT64_MAX``, its
        two's complement.
        """
        self.device.launch_unfused(
            KernelClass.STREAM, indices.nbytes, indices.nbytes * 2, len(indices)
        )
        return indices.astype(np.int64).view(np.uint64)

    # -- reporting ------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "cold_loads": self.cold_loads,
            "hot_hits": self.hot_hits,
            "spills": self.spills,
            "unspills": self.unspills,
            "prefetches": self.prefetches,
            "prefetch_hits": self.prefetch_hits,
            "cached_tables": len(self._cache),
            "caching_used": self.device.caching_region.used,
            "caching_capacity": self.device.caching_region.capacity,
            "pinned_host_bytes": self.pinned_host_bytes,
            "contention_avoided_evictions": self.contention_avoided_evictions,
            "fragment_spills": self.fragment_spills,
            "fragment_unspills": self.fragment_unspills,
            "spilled_fragment_bytes": self.spilled_fragment_bytes,
            "disk_spilled_bytes": self.disk_spilled_bytes,
        }
