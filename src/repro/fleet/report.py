"""Fleet-run reports: merged percentiles plus per-replica detail.

The fleet report merges every :class:`~repro.fleet.job.FleetJob` into
one latency distribution (queue wait vs service split, exactly like the
single-replica :class:`~repro.sched.report.ServingReport`), and keeps
each replica's own serving report nested under it — fleet-of-1 with the
caches off nests a report byte-identical to a solo scheduler's.  Cost is
reported as **replica-seconds**: each replica is billed from spawn to
retirement (or end of run), so an autoscaled fleet's bill reflects the
scale decisions, not just the peak.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..sched import JobState
from ..sched.report import latency_lines, timeline
from .job import FleetJob

__all__ = ["FleetReport"]


@dataclass
class FleetReport:
    """Everything a fleet run produced, ready for JSON or a summary."""

    routing: str
    seed: int
    jobs: list[FleetJob] = field(repr=False)
    replicas: list[dict]  # per-replica lifecycle + nested ServingReport dict
    makespan_s: float
    throughput_qps: float
    latency: dict
    counters: dict
    result_cache: dict
    plan_cache: dict
    tenants: dict
    autoscale_events: list[dict]
    replica_seconds: float
    schedule_digest: str

    @classmethod
    def build(cls, fleet) -> "FleetReport":
        jobs: list[FleetJob] = fleet.records
        t1, makespan, throughput, latency = timeline(jobs)
        counters = {
            "submitted": len(jobs),
            "completed": sum(1 for j in jobs if j.state == JobState.COMPLETED),
            "failed": sum(1 for j in jobs if j.state == JobState.FAILED),
            "rejected": sum(1 for j in jobs if j.state == JobState.REJECTED),
            "throttled": sum(1 for j in jobs if j.throttled),
            "cache_hits": sum(1 for j in jobs if j.cache_hit),
            "coalesced": sum(1 for j in jobs if j.coalesced),
            "retries": sum(j.retries for j in jobs),
            "crashes": sum(1 for r in fleet.replicas if r.crashed),
            "replicas_spawned": len(fleet.replicas),
            "scale_ups": fleet.autoscaler.scale_ups if fleet.autoscaler else 0,
            "scale_downs": fleet.autoscaler.scale_downs if fleet.autoscaler else 0,
        }
        end_vt = max(t1, fleet.virtual_now)
        replica_seconds = sum(r.replica_seconds(end_vt) for r in fleet.replicas)
        replicas = [
            {**r.to_dict(), "report": r.scheduler.build_report().to_dict()}
            for r in fleet.replicas
        ]
        digest_src = repr(
            (
                fleet.routing.name,
                [r["report"]["schedule_digest"] for r in replicas],
                fleet.event_log,
            )
        )
        return cls(
            routing=fleet.routing.name,
            seed=fleet.seed,
            jobs=jobs,
            replicas=replicas,
            makespan_s=makespan,
            throughput_qps=throughput,
            latency=latency,
            counters=counters,
            result_cache=fleet.result_cache.stats() if fleet.result_cache else {},
            plan_cache=fleet.plan_cache.stats() if fleet.plan_cache else {},
            tenants=fleet.tenants.stats(),
            autoscale_events=(
                [e.to_dict() for e in fleet.autoscaler.events]
                if fleet.autoscaler
                else []
            ),
            replica_seconds=replica_seconds,
            schedule_digest=hashlib.sha256(digest_src.encode()).hexdigest()[:16],
        )

    @property
    def result_cache_hit_rate(self) -> float:
        lookups = self.result_cache.get("hits", 0) + self.result_cache.get("misses", 0)
        return self.result_cache.get("hits", 0) / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "routing": self.routing,
            "seed": self.seed,
            "makespan_s": self.makespan_s,
            "throughput_qps": self.throughput_qps,
            "latency": self.latency,
            "counters": self.counters,
            "result_cache": self.result_cache,
            "plan_cache": self.plan_cache,
            "tenants": self.tenants,
            "autoscale_events": self.autoscale_events,
            "replica_seconds": self.replica_seconds,
            "schedule_digest": self.schedule_digest,
            "replicas": self.replicas,
            "jobs": [j.to_dict() for j in self.jobs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        c = self.counters
        lines = [
            f"fleet report — routing={self.routing} seed={self.seed} "
            f"replicas={c['replicas_spawned']}",
            f"  jobs: {c['submitted']} submitted, {c['completed']} completed, "
            f"{c['failed']} failed, {c['rejected']} rejected "
            f"({c['throttled']} throttled, {c['cache_hits']} cache hits, "
            f"{c['retries']} retries)",
            f"  makespan: {self.makespan_s:.6f}s sim  "
            f"throughput: {self.throughput_qps:.2f} q/s  "
            f"cost: {self.replica_seconds:.6f} replica-seconds",
            *latency_lines(self.latency),
        ]
        if self.result_cache:
            lines.append(
                f"  result cache: {self.result_cache['hits']} hits / "
                f"{self.result_cache['misses']} misses "
                f"({self.result_cache_hit_rate:.0%}), "
                f"{self.result_cache['bytes']} B resident, "
                f"{self.result_cache['evictions']} evicted, "
                f"{c['coalesced']} coalesced"
            )
        if self.plan_cache:
            lines.append(
                f"  plan cache: {self.plan_cache['hits']} hits / "
                f"{self.plan_cache['misses']} misses, "
                f"{self.plan_cache['entries']} entries"
            )
        if c["scale_ups"] or c["scale_downs"]:
            lines.append(
                f"  autoscale: {c['scale_ups']} up, {c['scale_downs']} down"
            )
        if c["crashes"]:
            lines.append(f"  crashes: {c['crashes']} ({c['retries']} retried)")
        lines.append(f"  schedule digest: {self.schedule_digest}")
        return "\n".join(lines)
