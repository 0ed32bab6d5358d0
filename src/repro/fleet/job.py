"""Fleet-level job records: one per submitted query, across retries.

A :class:`FleetJob` is the fleet's view of a query: where it was routed,
whether it was answered from the result cache or throttled by a tenant
quota, and — after a replica crash — the retry that finished it.  The
replica-level :class:`~repro.sched.job.QueryJob` it wraps carries the
execution detail; latency here is always measured from the *original*
fleet arrival, so a crash-retried query's tail shows up honestly in the
percentiles.

A result-cache miss whose twin (same result key, same table versions) is
already running becomes that twin's *follower*: it is never sent to a
replica, waits in the leader's ``followers`` list, and is answered from
the leader's table when the leader completes (``coalesced``; it counts
as a cache hit, and its wait shows up in ``latency_s``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..columnar import Table
from ..sched import JobState, QueryJob
from .digest import PlanDigest

__all__ = ["FleetJob"]


@dataclass
class FleetJob:
    """One query submitted to the fleet."""

    seq: int
    label: str
    tenant: str
    plan: Any = field(repr=False)
    catalog: Mapping[str, Table] = field(repr=False)
    arrival_s: float = 0.0
    deadline_s: float | None = None
    meta: dict = field(default_factory=dict, repr=False)
    digest: PlanDigest | None = field(default=None, repr=False)

    # -- outcome (filled in by the fleet) --
    replica_id: int | None = None
    job: QueryJob | None = field(default=None, repr=False)
    cache_hit: bool = False
    coalesced: bool = False  # answered from a running twin's result
    throttled: bool = False
    retries: int = 0
    retry_wait_s: float = 0.0  # original arrival -> last retry submission
    dep_versions: dict = field(default_factory=dict, repr=False)
    followers: list["FleetJob"] = field(default_factory=list, repr=False)
    _table: Table | None = field(default=None, repr=False)
    _completion_s: float | None = field(default=None, repr=False)
    _error: str | None = None

    # -- terminal transitions the fleet applies directly ---------------------

    def complete_from_cache(self, vt: float, table: Table) -> None:
        self.cache_hit = True
        self._table = table
        self._completion_s = vt

    def mark_throttled(self, vt: float) -> None:
        self.throttled = True
        self._completion_s = vt

    def fail(self, vt: float, error: BaseException) -> None:
        self._error = type(error).__name__
        self._completion_s = vt

    # -- merged view ---------------------------------------------------------

    @property
    def state(self) -> str:
        if self.cache_hit:
            return JobState.COMPLETED
        if self.throttled:
            return JobState.REJECTED
        if self._error is not None:
            return JobState.FAILED
        if self.job is not None:
            return self.job.state
        return JobState.SUBMITTED

    @property
    def completion_s(self) -> float | None:
        if self._completion_s is not None:
            return self._completion_s
        return self.job.completion_s if self.job is not None else None

    @property
    def latency_s(self) -> float | None:
        done = self.completion_s
        return done - self.arrival_s if done is not None else None

    @property
    def queue_wait_s(self) -> float:
        """Admission wait plus any crash-retry delay; cache hits wait 0."""
        base = self.job.queue_wait_s if self.job is not None else 0.0
        return base + self.retry_wait_s

    @property
    def service_s(self) -> float:
        return self.job.service_s if self.job is not None else 0.0

    @property
    def table(self) -> Table | None:
        if self._table is not None:
            return self._table
        return self.job.table if self.job is not None else None

    @property
    def error_name(self) -> str | None:
        if self._error is not None:
            return self._error
        if self.job is not None and self.job.error is not None:
            return type(self.job.error).__name__
        return None

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "label": self.label,
            "tenant": self.tenant,
            "state": self.state,
            "replica_id": self.replica_id,
            "cache_hit": self.cache_hit,
            "throttled": self.throttled,
            "retries": self.retries,
            "arrival_s": self.arrival_s,
            "completion_s": self.completion_s,
            "latency_s": self.latency_s,
            "queue_wait_s": self.queue_wait_s,
            "service_s": self.service_s,
            "deadline_s": self.deadline_s,
            "error": self.error_name,
            "plan_key": self.digest.plan_key if self.digest is not None else None,
            "result_key": self.digest.result_key if self.digest is not None else None,
        }
