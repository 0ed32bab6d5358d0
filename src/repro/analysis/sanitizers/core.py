"""The runtime sanitizer: shadow-state checks over one engine's run.

A :class:`Sanitizer` attaches to a device (clock + RMM pool) and its
buffer manager through ``None``-default hook attributes — the same
pattern as the fault injector and the null tracer, so a detached run
pays nothing and an attached run only *observes*.  Checks never advance
the simulated clock and never change control flow; the hypothesis suite
asserts the observer effect is exactly zero.

Three check families:

* **happens-before** (SA01–SA04): every consumption of async-copied
  bytes must be covered by a stream sync edge at or past the copy's
  completion event;
* **memory** (SA05–SA08): the shadow ledger of pool allocations and the
  recomputed ground truth of cache/fragment tiers must agree with the
  live counters, and nothing may leak past end-of-run cleanup;
* **determinism** (SA09–SA10): see :mod:`.determinism`.

Typical use::

    engine = SiriusEngine.for_spec(GH200, sanitize=True, overlap=True)
    engine.execute(plan, catalog)
    report = engine.sanitizer.report("tpch")
    assert report.ok, report.to_json()
"""

from __future__ import annotations

from contextlib import contextmanager

from ..report import Finding
from .report import SanitizerReport
from .rules import SA_SEVERITY
from .shadow import HBGraph, ShadowLedger

__all__ = ["Sanitizer", "sanitized"]

_COPY_STREAM = "copy"


class Sanitizer:
    """Shadow-state observer for one device + buffer manager."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        self.hb = HBGraph()
        self.ledger = ShadowLedger()
        self.checks_run = 0
        # Copy-stream event mirrors, keyed by cache-entry / fragment name:
        #   _pending: prefetched entries no consumer has read yet;
        #   _consumed: entries read mid-pipeline whose tail chunks must be
        #     joined by the pipeline-end sync point;
        #   _fragment_writes: outstanding demotion (spill) writes.
        self._pending: dict[str, float] = {}
        self._consumed: dict[str, float] = {}
        self._fragment_writes: dict[str, float] = {}
        # The pool-vs-ledger comparison is only sound once the ledger has
        # observed a whole pool generation from its reset.
        self._ledger_synced = False
        self._attached: list[tuple[object, object | None]] = []

    # -- findings --------------------------------------------------------------

    def _finding(self, rule: str, message: str, site: str) -> None:
        self.findings.append(Finding(rule, SA_SEVERITY[rule], message, site))

    @property
    def ok(self) -> bool:
        return not self.findings

    def report(self, suite: str = "adhoc") -> SanitizerReport:
        counters = {"checks_run": self.checks_run, "findings": len(self.findings)}
        counters.update(self.hb.stats())
        counters.update(self.ledger.stats())
        counters["stream_events"] = counters.get("hb_nodes", 0)
        return SanitizerReport(
            suite=suite, findings=list(self.findings), counters=counters
        )

    # -- attachment ------------------------------------------------------------

    def attach(self, device, buffer_manager=None) -> None:
        """Wire this sanitizer into a device's clock and pool (and
        optionally its buffer manager)."""
        device.attach_sanitizer(self)
        if buffer_manager is not None:
            buffer_manager.sanitizer = self
        self._attached.append((device, buffer_manager))

    def detach(self) -> None:
        for device, buffer_manager in self._attached:
            device.detach_sanitizer()
            if buffer_manager is not None:
                buffer_manager.sanitizer = None
        self._attached.clear()

    # -- stream hooks (fed by StreamClock) ---------------------------------------

    def on_stream_issue(self, stream: str, start: float, end: float) -> None:
        self.hb.on_issue(stream, start, end)

    def on_stream_wait(self, stream: str, until: float) -> None:
        self.hb.on_wait(stream, until)

    # -- buffer-manager hooks ----------------------------------------------------

    def on_prefetch(self, entry, event: float) -> None:
        """A fully-async cold load was issued for ``entry``."""
        self._pending[entry.name] = event

    def on_entry_read(self, entry, event: float | None) -> None:
        """A consumer received ``entry``'s device table.

        ``event`` is the full-completion timestamp of an overlapped load
        being consumed (prefetch hit or cold overlapped load), ``None``
        for plain hot hits.
        """
        self.checks_run += 1
        name = entry.name
        if entry.ready_at > 0.0 and not self.hb.covered(_COPY_STREAM, entry.ready_at):
            self._finding(
                "SA01",
                f"entry {name!r} read at ready_at={entry.ready_at:.9f} but the "
                f"host's copy-stream sync frontier is only "
                f"{self.hb.synced_frontier(_COPY_STREAM):.9f} — no "
                "happens-before edge covers the first chunk",
                f"buffer_manager.get_table:{name}",
            )
        self._pending.pop(name, None)
        if event is not None:
            self._consumed[name] = event
        self._check_gtable_buffers(entry.gtable, f"buffer_manager.get_table:{name}")

    def on_entry_release(self, entry, op: str) -> None:
        """``entry`` is about to be spilled or dropped (device bytes freed)."""
        self.checks_run += 1
        name = entry.name
        events = [
            e
            for e in (self._pending.get(name), self._consumed.get(name))
            if e is not None
        ]
        for event in events:
            if not self.hb.covered(_COPY_STREAM, event):
                self._finding(
                    "SA02",
                    f"{op} of entry {name!r} with an outstanding copy-stream "
                    f"chunk (event {event:.9f} past sync frontier "
                    f"{self.hb.synced_frontier(_COPY_STREAM):.9f}) — the DMA "
                    "would write into freed memory",
                    f"buffer_manager._{op}:{name}",
                )
        self._pending.pop(name, None)
        self._consumed.pop(name, None)

    def on_pipeline_end(self, site: str) -> None:
        """The consuming pipeline's sink is about to finalise; every
        overlapped load it consumed must have been joined."""
        self.checks_run += 1
        for name, event in list(self._consumed.items()):
            if self.hb.covered(_COPY_STREAM, event):
                del self._consumed[name]
            else:
                self._finding(
                    "SA03",
                    f"pipeline finalised while entry {name!r}'s overlapped "
                    f"load (event {event:.9f}) was still landing — "
                    "complete_loads/wait_copies missing before the sink",
                    site,
                )
                del self._consumed[name]

    # -- fragment hooks ----------------------------------------------------------

    def on_fragment_spill(self, name: str, event: float) -> None:
        self._fragment_writes[name] = event

    def on_fragment_read(self, frag) -> None:
        self.checks_run += 1
        event = self._fragment_writes.get(frag.name)
        if event is not None:
            if self.hb.covered(_COPY_STREAM, event):
                del self._fragment_writes[frag.name]
            else:
                self._finding(
                    "SA04",
                    f"fragment {frag.name!r} read before its demotion write "
                    f"(event {event:.9f}) was joined — the host copy is not "
                    "yet authoritative",
                    f"buffer_manager.get_fragment:{frag.name}",
                )
                del self._fragment_writes[frag.name]
        if frag.gtable is not None:
            self._check_gtable_buffers(
                frag.gtable, f"buffer_manager.get_fragment:{frag.name}"
            )

    def on_fragment_drop(self, name: str) -> None:
        # Dropping a pinned fragment with an in-flight demotion write
        # models a stream-ordered release (the staging buffer is retired
        # behind the write, never reused before it) — not a race.
        self._fragment_writes.pop(name, None)

    # -- pool hooks (fed by PoolAllocator) ---------------------------------------

    def on_pool_alloc(self, allocation) -> None:
        self.ledger.on_alloc(
            allocation.alloc_id,
            allocation.size,
            allocation.owner,
            allocation.generation,
        )

    def on_pool_free(self, pool, allocation) -> None:
        self.checks_run += 1
        if allocation.generation != pool.generation:
            return  # stale handle from before a reset: legitimate no-op
        if allocation.alloc_id and allocation.alloc_id in pool._reaped:
            return  # owner already reclaimed wholesale: legitimate no-op
        if not self.ledger.on_free(allocation.alloc_id) and self._ledger_synced:
            self._finding(
                "SA06",
                f"double free of allocation id={allocation.alloc_id} "
                f"(offset {allocation.offset}, {allocation.size} bytes, "
                f"owner {allocation.owner!r})",
                f"pool.free:gen{pool.generation}",
            )

    def on_pool_release_owner(self, owner) -> None:
        self.ledger.on_release_owner(owner)

    def on_pool_reset(self) -> None:
        self.ledger.on_reset()
        self._ledger_synced = True

    # -- end-of-scope checks -----------------------------------------------------

    def check_drift(self, buffer_manager, site: str) -> None:
        """SA08: live counters vs the shadow ledger / recomputed truth."""
        self.checks_run += 1
        bm = buffer_manager
        device = bm.device
        pool = device.processing_pool
        if self._ledger_synced and pool.in_use != self.ledger.live_bytes():
            self._finding(
                "SA08",
                f"pool in_use={pool.in_use} disagrees with the shadow ledger "
                f"({self.ledger.live_bytes()} bytes across "
                f"{len(self.ledger.live)} live allocations)",
                site,
            )
        pinned = sum(
            e.nbytes for e in bm._cache.values() if e.location == "pinned"
        )
        if bm.pinned_host_bytes != pinned:
            self._finding(
                "SA08",
                f"pinned_host_bytes={bm.pinned_host_bytes} but spilled cache "
                f"entries account for {pinned} bytes",
                site,
            )
        frag_pinned = sum(
            f.nbytes for f in bm._fragments.values() if f.location == "pinned"
        )
        if bm.fragment_pinned_bytes != frag_pinned:
            self._finding(
                "SA08",
                f"fragment_pinned_bytes={bm.fragment_pinned_bytes} but pinned "
                f"fragments account for {frag_pinned} bytes",
                site,
            )
        frag_disk = sum(
            f.nbytes for f in bm._fragments.values() if f.location == "disk"
        )
        if bm.disk_fragment_bytes != frag_disk:
            self._finding(
                "SA08",
                f"disk_fragment_bytes={bm.disk_fragment_bytes} but disk "
                f"fragments account for {frag_disk} bytes",
                site,
            )
        caching = 0
        for entry in bm._cache.values():
            if entry.location == "device" and entry.gtable is not None:
                for col in entry.gtable.columns:
                    caching += col.buffer.nbytes
                    if col.validity is not None:
                        caching += col.validity.nbytes
        if device.caching_region.used != caching:
            self._finding(
                "SA08",
                f"caching_region.used={device.caching_region.used} but "
                f"device-resident cache entries account for {caching} bytes",
                site,
            )

    def check_namespace_dropped(self, buffer_manager, ns: str) -> None:
        """SA05 at ``drop_namespace``: nothing of the namespace survives."""
        self.checks_run += 1
        prefix = ns + "/"
        leaked = [n for n in buffer_manager._fragments if n.startswith(prefix)]
        if leaked:
            self._finding(
                "SA05",
                f"fragments {leaked} survive drop_namespace({ns!r})",
                f"buffer_manager.drop_namespace:{ns}",
            )

    def check_query_end(self, engine, site: str) -> None:
        """End-of-query checks for the single-query engine path: fragment
        store empty (the run retired its partitions) + counter drift."""
        self.checks_run += 1
        bm = engine.buffer_manager
        if bm._fragments:
            self._finding(
                "SA05",
                f"fragments {list(bm._fragments)} survive query end "
                "(clear_fragments/drop_namespace missing)",
                site,
            )
        self.check_drift(bm, site)

    def check_end_run(self, engine, site: str) -> None:
        """End-of-serving-run checks: every owner released its pool bytes
        and no fragments survive (the per-owner reclamation discipline)."""
        self.checks_run += 1
        pool = engine.device.processing_pool
        if pool.in_use > 0:
            owners: dict = {}
            for offset, size in pool._live.items():
                owner = pool._owners.get(offset)
                owners[owner] = owners.get(owner, 0) + size
            detail = ", ".join(
                f"{owner!r}: {nbytes} bytes" for owner, nbytes in sorted(
                    owners.items(), key=lambda kv: repr(kv[0])
                )
            )
            self._finding(
                "SA05",
                f"processing pool holds {pool.in_use} bytes at end_run "
                f"({detail}) — release_owner missing",
                site,
            )
        bm = engine.buffer_manager
        if bm._fragments:
            self._finding(
                "SA05",
                f"fragments {list(bm._fragments)} survive end_run",
                site,
            )
        self.check_drift(bm, site)

    # -- helpers -----------------------------------------------------------------

    def _check_gtable_buffers(self, gtable, site: str) -> None:
        for col in gtable.columns:
            freed = col.buffer.is_freed or (
                col.validity is not None and col.validity.is_freed
            )
            if freed:
                self._finding(
                    "SA07",
                    "table handed to a consumer through freed device "
                    "buffers (use-after-free)",
                    site,
                )
                return


@contextmanager
def sanitized(engine):
    """Context manager: attach a fresh :class:`Sanitizer` to ``engine``
    for the scope, run the end-of-query checks on exit, and detach."""
    sanitizer = Sanitizer()
    sanitizer.attach(engine.device, engine.buffer_manager)
    previous = engine.sanitizer
    engine.sanitizer = sanitizer
    try:
        yield sanitizer
        sanitizer.check_query_end(engine, "sanitized:exit")
    finally:
        engine.sanitizer = previous
        sanitizer.detach()
