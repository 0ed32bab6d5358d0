"""The fleet scheduler: N engine replicas on one merged event timeline.

The fleet is an outer discrete-event loop over inner
:class:`~repro.sched.ServingScheduler` loops.  Each replica exposes its
next event instant (:meth:`~repro.sched.ServingScheduler
.next_event_time`); the fleet repeatedly processes the earliest event
across the whole system — a scheduled replica crash, a fleet arrival
(tenant quota -> result cache -> routing), an autoscaler sample, or one
replica-internal event — breaking time ties in exactly that order, with
replica ties to the lowest id.  Every decision is a pure function of
seeded state, so a (seed, workload, routing) tuple fully determines the
fleet schedule.

**Fleet-of-1 identity.**  With one replica and every fleet feature at
its default (caches off, no quotas, no autoscaler, no faults), routing
degenerates to pushing each arrival into the replica's own arrival heap
at its arrival instant — the replica's event loop then makes the same
decisions in the same order as a solo scheduler, so its serving report
is byte-identical to one produced without the fleet layer.

**Coalescing.**  With the result cache on, a miss whose result key and
table versions match a request already routed and unfinished (its
*leader*) is not routed: it joins the leader's ``followers`` and is
answered, relabelled to its own output names, at the leader's completion
instant.  If the leader fails or is rejected, its followers are routed
afresh at that instant; if its replica crashes, they are retried with
the crash victims.  A request with a deadline never follows (its
deadline is the replica scheduler's to enforce).
"""

from __future__ import annotations

import heapq
from typing import Callable, Mapping

from ..columnar import Table
from ..core.sirius import SiriusEngine
from ..faults import FaultPlan, NodeCrash
from ..obs import MetricSet
from ..plan import Plan
from ..sched import ServingScheduler
from .autoscale import Autoscaler
from .cache import PlanCache, ResultCache, TableVersions
from .digest import plan_digest
from .job import FleetJob
from .replica import EngineReplica
from .report import FleetReport
from .routing import PlacementAwareRouting, make_routing
from .tenants import DEFAULT_TENANT, TenantQuota, TenantTable

__all__ = ["FleetScheduler", "ReplicaCrashError"]

_INF = float("inf")


class ReplicaCrashError(RuntimeError):
    """A replica halted mid-query; the fleet retried or failed the work."""


class FleetScheduler:
    """Routes queries across replicated engines with caching and scaling."""

    def __init__(
        self,
        engine_factory: Callable[[int], SiriusEngine],
        replicas: int = 1,
        routing="round-robin",
        policy="fifo",
        streams: int = 4,
        seed: int = 0,
        result_cache_bytes: int = 0,
        plan_cache_entries: int = 0,
        quotas: Mapping[str, TenantQuota] | None = None,
        autoscaler: Autoscaler | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        """
        Args:
            engine_factory: ``replica_id -> SiriusEngine``; called once
                per replica spawn (see :func:`~repro.fleet.replica
                .engine_factory`).
            replicas: Initial fleet size.
            routing: ``round-robin`` / ``least-outstanding`` /
                ``placement`` or a :class:`~repro.fleet.routing
                .RoutingPolicy`.
            policy / streams / seed: Passed to every
                replica's :class:`~repro.sched.ServingScheduler`.
            result_cache_bytes: Byte budget of the exact-result cache;
                0 (default) disables it.
            plan_cache_entries: Entry budget of the parameterized plan
                cache; 0 (default) disables it.
            quotas: Per-tenant token-bucket quotas; tenants absent from
                the mapping are unlimited.
            autoscaler: Reactive :class:`~repro.fleet.autoscale
                .Autoscaler`; ``None`` keeps the fleet size fixed.
            fault_plan: Scheduled faults; ``NodeCrash(node_id=i)`` halts
                replica ``i`` and the fleet retries its in-flight work
                on survivors.
        """
        if replicas < 1:
            raise ValueError("the fleet needs at least one replica")
        self.engine_factory = engine_factory
        self.initial_replicas = int(replicas)
        self.routing = make_routing(routing)
        self.policy = policy
        self.streams = streams
        self.seed = seed
        self.metrics = MetricSet()  # cache and fleet gauges
        self.result_cache = (
            ResultCache(result_cache_bytes, self.metrics)
            if result_cache_bytes > 0
            else None
        )
        self.plan_cache = (
            PlanCache(plan_cache_entries, self.metrics)
            if plan_cache_entries > 0
            else None
        )
        self.versions = TableVersions()
        self.tenants = TenantTable(quotas)
        self.autoscaler = autoscaler
        self._crashes: list[NodeCrash] = sorted(
            (f for f in (fault_plan.faults if fault_plan else []) if isinstance(f, NodeCrash)),
            key=lambda c: (c.at, c.node_id),
        )

        self.replicas: list[EngineReplica] = []
        self._by_id: dict[int, EngineReplica] = {}
        self.records: list[FleetJob] = []
        self._arrivals: list[tuple[float, int, FleetJob]] = []  # heap
        self.event_log: list[tuple] = []
        self._vt = 0.0
        self._next_scale = autoscaler.interval_s if autoscaler else _INF
        self._crashing: EngineReplica | None = None
        self._crash_victims: list[FleetJob] = []
        # result key -> the newest routed, unfinished request computing it
        self._leaders: dict[str, FleetJob] = {}
        self._ran = False
        # Digests cost a plan walk; only pay it when something reads them.
        self._need_digest = (
            self.result_cache is not None
            or self.plan_cache is not None
            or isinstance(self.routing, PlacementAwareRouting)
        )

    # -- submission ----------------------------------------------------------

    @property
    def virtual_now(self) -> float:
        return self._vt

    def submit(
        self,
        plan: Plan,
        catalog: Mapping[str, Table],
        label: str | None = None,
        arrival_s: float = 0.0,
        deadline_s: float | None = None,
        tenant: str = DEFAULT_TENANT,
        meta: dict | None = None,
    ) -> FleetJob:
        """Register a query arriving at ``arrival_s`` on the fleet
        timeline; tenant quota, cache lookup, and routing all happen at
        that instant during :meth:`run`."""
        plan.validate()
        record = FleetJob(
            seq=len(self.records),
            label=label if label is not None else f"q{len(self.records)}",
            tenant=tenant,
            plan=plan,
            catalog=catalog,
            arrival_s=float(arrival_s),
            deadline_s=deadline_s,
            meta=meta if meta is not None else {},
            digest=plan_digest(plan) if self._need_digest else None,
        )
        self.records.append(record)
        heapq.heappush(self._arrivals, (record.arrival_s, record.seq, record))
        return record

    def invalidate_table(self, name: str) -> None:
        """Catalog-change hook: bump ``name``'s version so cached
        results that read it can never be served again, and eagerly
        evict them."""
        self.versions.bump(name)
        if self.result_cache is not None:
            self.result_cache.invalidate_table(name)

    # -- replica lifecycle ---------------------------------------------------

    def _spawn(self, vt: float) -> EngineReplica:
        replica_id = len(self.replicas)
        engine = self.engine_factory(replica_id)
        scheduler = ServingScheduler(
            engine,
            policy=self.policy,
            streams=self.streams,
            seed=self.seed,
        )
        scheduler.on_complete = self._on_job_complete
        scheduler.begin_run()
        replica = EngineReplica(replica_id, engine, scheduler, spawned_at=vt)
        self.replicas.append(replica)
        self._by_id[replica_id] = replica
        self.metrics.count("fleet.replicas_spawned")
        return replica

    def _routable(self) -> list[EngineReplica]:
        return [r for r in self.replicas if r.routable]

    def sanitizer_report(self, suite: str = "fleet"):
        """Merge every replica's sanitizer findings into one
        :class:`~repro.analysis.sanitizers.SanitizerReport` (empty when
        the fleet runs unsanitized)."""
        from ..analysis.sanitizers import SanitizerReport

        merged = SanitizerReport(suite=suite)
        for replica in self.replicas:
            sanitizer = getattr(replica.engine, "sanitizer", None)
            if sanitizer is not None:
                merged.merge(sanitizer.report(f"{suite}:replica{replica.id}"))
        return merged

    # -- the merged event loop -----------------------------------------------

    def run(self) -> FleetReport:
        """Serve every submitted query to a terminal state; returns the
        :class:`~repro.fleet.report.FleetReport`."""
        if self._ran:
            raise RuntimeError("a FleetScheduler instance serves exactly one run")
        self._ran = True
        for _ in range(self.initial_replicas):
            self._spawn(0.0)
        try:
            while True:
                t_crash = self._crashes[0].at if self._crashes else _INF
                t_arr = self._arrivals[0][0] if self._arrivals else _INF
                t_rep = _INF
                next_replica: EngineReplica | None = None
                for replica in self.replicas:
                    if not replica.alive:
                        continue
                    t = replica.scheduler.next_event_time()
                    if t < t_rep:  # strict: ties go to the lowest id
                        t_rep = t
                        next_replica = replica
                work_pending = t_arr < _INF or t_rep < _INF
                t_scale = self._next_scale if (self.autoscaler and work_pending) else _INF
                t = min(t_crash, t_arr, t_scale, t_rep)
                if t == _INF:
                    break
                self._vt = max(self._vt, t)
                if t_crash == t:
                    self._process_crash(self._crashes.pop(0), self._vt)
                elif t_arr == t:
                    _, _, record = heapq.heappop(self._arrivals)
                    self._route(record, self._vt)
                elif t_scale == t:
                    self._autoscale_tick(self._vt)
                    self._next_scale = t + self.autoscaler.interval_s
                else:
                    next_replica.scheduler.step_event()
                    if (
                        next_replica.draining
                        and next_replica.alive
                        and next_replica.idle
                    ):
                        next_replica.retire(self._vt)
                        self.event_log.append(("retire", next_replica.id, self._vt))
        finally:
            for replica in self.replicas:
                replica.scheduler.end_run()
        return FleetReport.build(self)

    # -- event handlers ------------------------------------------------------

    def _route(self, record: FleetJob, vt: float) -> None:
        if not self.tenants.admit(record.tenant, record.arrival_s if record.retries == 0 else vt):
            record.mark_throttled(vt)
            self.metrics.count("fleet.throttled")
            self.event_log.append(("throttle", record.seq, vt))
            return
        self._dispatch(record, vt)

    def _dispatch(self, record: FleetJob, vt: float) -> None:
        """Result cache -> running twin -> routing, for an admitted request."""
        digest = record.digest
        coalescing = self.result_cache is not None and digest is not None
        if coalescing:
            versions = self.versions.snapshot(digest.tables)
            table = self.result_cache.lookup(digest.result_key, versions)
            if table is not None:
                # Serve the cached bytes under the requesting plan's
                # output names (aliases were masked out of the key).
                record.complete_from_cache(
                    vt, table.rename(record.plan.output_schema().names())
                )
                self.event_log.append(("hit", record.seq, vt))
                return
            leader = self._leaders.get(digest.result_key)
            if (
                leader is not None
                and record.deadline_s is None
                and leader.dep_versions == versions
            ):
                record.dep_versions = versions
                leader.followers.append(record)
                self.metrics.count("fleet.coalesced")
                self.event_log.append(("coalesce", record.seq, leader.seq, vt))
                return
        candidates = self._routable()
        if not candidates:
            record.fail(
                vt, ReplicaCrashError("no routable replica (all crashed or draining)")
            )
            self.event_log.append(("unroutable", record.seq, vt))
            return
        tables = digest.tables if digest is not None else ()
        replica = self.routing.select(candidates, tables, record.catalog)
        estimate = None
        if self.plan_cache is not None and digest is not None:
            estimate = self.plan_cache.lookup(digest.plan_key)
            if estimate is None:
                estimate = replica.engine.estimate(record.plan, record.catalog)
                self.plan_cache.insert(digest.plan_key, estimate)
        if digest is not None:
            record.dep_versions = self.versions.snapshot(digest.tables)
        job = replica.scheduler.submit(
            record.plan,
            record.catalog,
            label=record.label,
            arrival_s=vt,
            deadline_s=record.deadline_s,
            estimate=estimate,
            meta={"_fleet_seq": record.seq, "_fleet_replica": replica.id},
        )
        record.replica_id = replica.id
        record.job = job
        if coalescing:
            self._leaders[digest.result_key] = record
        replica.routed += 1
        if job.estimate is not None:
            replica.outstanding_cost += job.estimate.service_s
        self.event_log.append(("route", record.seq, replica.id, vt))

    def _on_job_complete(self, job) -> None:
        seq = job.meta.get("_fleet_seq")
        if seq is None:
            return
        record = self.records[seq]
        replica = self._by_id.get(job.meta.get("_fleet_replica"))
        if replica is not None and job.estimate is not None:
            replica.outstanding_cost = max(
                0.0, replica.outstanding_cost - job.estimate.service_s
            )
        followers, record.followers = record.followers, []
        if record.digest is not None and self._leaders.get(record.digest.result_key) is record:
            del self._leaders[record.digest.result_key]
        if self._crashing is not None and replica is self._crashing:
            # Aborted by the crash: the fleet retries it (and everything
            # waiting on it) on a survivor.
            self._crash_victims.append(record)
            self._crash_victims.extend(followers)
            return
        answered = job.error is None and job.table is not None
        if self.result_cache is not None and record.digest is not None and answered:
            current = self.versions.snapshot(record.digest.tables)
            if current == record.dep_versions:
                self.result_cache.insert(
                    record.digest.result_key, job.table, current
                )
        for follower in followers:
            if answered:
                follower.coalesced = True
                follower.complete_from_cache(
                    job.completion_s,
                    job.table.rename(follower.plan.output_schema().names()),
                )
            else:
                # The leader failed, expired or was rejected: the
                # followers arrive afresh now (their quota is already paid).
                self._dispatch(follower, self._vt)

    def _process_crash(self, crash: NodeCrash, vt: float) -> None:
        replica = self._by_id.get(crash.node_id)
        if replica is None or not replica.alive:
            self.event_log.append(("crash-noop", crash.node_id, vt))
            return
        self.event_log.append(("crash", crash.node_id, vt))
        self.metrics.count("fleet.crashes")
        self._crashing = replica
        self._crash_victims = []
        try:
            replica.scheduler.abort_pending(
                vt, ReplicaCrashError(f"replica {replica.id} crashed at {vt:.6f}s")
            )
        finally:
            self._crashing = None
        replica.crashed = True
        replica.draining = True
        replica.outstanding_cost = 0.0
        replica.retire(vt)
        # Backfill before rerouting so the victims have somewhere to go.
        if self.autoscaler is not None:
            floor = max(self.autoscaler.min_replicas, 1)
            while len(self._routable()) < floor and len(
                self._routable()
            ) < self.autoscaler.max_replicas:
                spawned = self._spawn(vt)
                self.autoscaler.record(vt, "up", len(self._routable()), 0.0, 1.0)
                self.event_log.append(("backfill", spawned.id, vt))
        victims = sorted(self._crash_victims, key=lambda r: r.seq)
        self._crash_victims = []
        for record in victims:
            record.retries += 1
            record.retry_wait_s = vt - record.arrival_s
            record.job = None
            record.replica_id = None
            self.event_log.append(("retry", record.seq, vt))
            self._route(record, vt)

    def _autoscale_tick(self, vt: float) -> None:
        routable = self._routable()
        # Pressure = the age of the oldest unfinished query (queued *or*
        # running): under serving, admission rarely blocks — the pain of
        # an under-provisioned fleet shows up as in-flight work aging on
        # oversubscribed streams, not as admission-queue depth.
        backlog = [
            j
            for r in routable
            for j in list(r.scheduler.queue) + r.scheduler.running
        ]
        queue_wait = max((vt - j.arrival_s for j in backlog), default=0.0)
        busy = sum(1 for r in routable if not r.idle)
        utilization = busy / len(routable) if routable else 0.0
        self.metrics.gauge("fleet.queue_wait", queue_wait)
        self.metrics.gauge("fleet.utilization", utilization)
        action = self.autoscaler.decide(
            vt, len(routable), queue_wait, len(backlog), utilization
        )
        if action == "up":
            self._spawn(vt)
            self.autoscaler.record(vt, "up", len(self._routable()), queue_wait, utilization)
            self.event_log.append(("scale-up", vt))
        elif action == "down":
            # Drain the least-loaded, newest replica: it stops taking new
            # work and retires once its in-flight queries finish.
            victim = min(routable, key=lambda r: (r.in_flight(), r.outstanding_cost, -r.id))
            victim.draining = True
            if victim.idle:
                victim.retire(vt)
                self.event_log.append(("retire", victim.id, vt))
            self.autoscaler.record(
                vt, "down", len(self._routable()), queue_wait, utilization
            )
            self.event_log.append(("scale-down", victim.id, vt))
