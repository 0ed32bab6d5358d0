"""The fleet's two-tier cache: exact results and parameterized plans.

* :class:`ResultCache` — completed result tables keyed by the *result
  key* (literals included), LRU-evicted under a byte budget.  Every
  entry records the versions of the base tables it read; a lookup whose
  dependencies have moved is a miss and drops the stale entry (the
  invalidation hook :meth:`~ResultCache.invalidate_table` bumps nothing
  itself — versions live in :class:`TableVersions` — it just evicts
  eagerly so invalidated bytes stop occupying budget).
* :class:`PlanCache` — :class:`~repro.sched.estimator.PlanEstimate`\\ s
  keyed by the *plan key* (literals masked), LRU under an entry budget.
  A hit skips re-deriving the estimate for every parameterization of a
  shape the fleet has already priced.

Both report hit/miss/eviction/invalidation counters through a
:class:`repro.obs.MetricSet`, and both maintain the invariant the
property suite leans on: ``hits + misses == lookups`` and resident bytes
never exceed the budget.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

from ..columnar import Table
from ..obs import MetricSet

__all__ = ["PlanCache", "ResultCache", "TableVersions"]


class TableVersions:
    """Monotone version counters per base table.

    The fleet bumps a table's version whenever the catalog changes under
    it (a load, an update, an explicit invalidation); cached results
    remember the versions they read and go stale the moment any moves.
    """

    def __init__(self):
        self._versions: dict[str, int] = {}

    def get(self, name: str) -> int:
        return self._versions.get(name, 0)

    def bump(self, name: str) -> int:
        self._versions[name] = self.get(name) + 1
        return self._versions[name]

    def snapshot(self, names) -> dict[str, int]:
        return {n: self.get(n) for n in names}


@dataclass
class _ResultEntry:
    table: Table
    nbytes: int
    deps: dict[str, int]  # table name -> version it was computed against


class ResultCache:
    """Byte-budgeted LRU of exact query results with version deps."""

    def __init__(self, max_bytes: int, metrics: MetricSet | None = None):
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.max_bytes = int(max_bytes)
        self.metrics = metrics if metrics is not None else MetricSet()
        self._entries: "OrderedDict[str, _ResultEntry]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.inserts = 0
        self.oversized_rejects = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def _gauge(self) -> None:
        self.metrics.gauge("fleet.result_cache.bytes", self.bytes)
        self.metrics.gauge("fleet.result_cache.entries", len(self._entries))

    def _drop(self, key: str) -> _ResultEntry:
        entry = self._entries.pop(key)
        self.bytes -= entry.nbytes
        return entry

    def lookup(self, key: str, versions: Mapping[str, int]) -> Table | None:
        """The cached table for ``key``, or ``None``.  A stale entry
        (any dep version moved since insert) is a miss and is dropped."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self.metrics.count("fleet.result_cache.miss")
            return None
        if any(versions.get(t, 0) != v for t, v in entry.deps.items()):
            self._drop(key)
            self.invalidations += 1
            self.misses += 1
            self.metrics.count("fleet.result_cache.invalidation")
            self.metrics.count("fleet.result_cache.miss")
            self._gauge()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.metrics.count("fleet.result_cache.hit")
        return entry.table

    def insert(self, key: str, table: Table, deps: Mapping[str, int]) -> bool:
        """Cache ``table`` under ``key``; evicts LRU entries until the
        byte budget holds.  A result larger than the whole budget is not
        cached (returns ``False``)."""
        nbytes = int(table.nbytes)
        if key in self._entries:
            # Even a rejected replacement supersedes what it would replace.
            self._drop(key)
        if nbytes > self.max_bytes:
            self.oversized_rejects += 1
            self.metrics.count("fleet.result_cache.oversized_reject")
            self._gauge()
            return False
        while self._entries and self.bytes + nbytes > self.max_bytes:
            self._drop(next(iter(self._entries)))
            self.evictions += 1
            self.metrics.count("fleet.result_cache.eviction")
        self._entries[key] = _ResultEntry(table, nbytes, dict(deps))
        self.bytes += nbytes
        self.inserts += 1
        self.metrics.count("fleet.result_cache.insert")
        self._gauge()
        return True

    def invalidate_table(self, name: str) -> int:
        """Eagerly drop every entry depending on ``name``; returns how
        many were dropped.  (Version bumps alone already prevent stale
        serves — this just frees the budget immediately.)"""
        stale = [k for k, e in self._entries.items() if name in e.deps]
        for key in stale:
            self._drop(key)
            self.invalidations += 1
            self.metrics.count("fleet.result_cache.invalidation")
        self._gauge()
        return len(stale)

    def stats(self) -> dict:
        return {
            "max_bytes": self.max_bytes,
            "bytes": self.bytes,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "inserts": self.inserts,
            "oversized_rejects": self.oversized_rejects,
        }


class PlanCache:
    """Entry-budgeted LRU of plan estimates keyed by parameterized shape."""

    def __init__(self, max_entries: int, metrics: MetricSet | None = None):
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = int(max_entries)
        self.metrics = metrics if metrics is not None else MetricSet()
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self.metrics.count("fleet.plan_cache.miss")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.metrics.count("fleet.plan_cache.hit")
        return entry

    def insert(self, key: str, estimate) -> None:
        if self.max_entries == 0:
            return
        if key in self._entries:
            self._entries.pop(key)
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self.metrics.count("fleet.plan_cache.eviction")
        self._entries[key] = estimate
        self.metrics.gauge("fleet.plan_cache.entries", len(self._entries))

    def stats(self) -> dict:
        return {
            "max_entries": self.max_entries,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
