"""Serving-run reports: throughput and latency percentiles.

Latency is split the way serving systems report it: **queue wait**
(arrival to admission) vs **service** (the job's own simulated device
seconds) vs **total** (arrival to completion on the serving timeline,
which also includes time spent admitted-but-preempted while other
queries' tasks held the streams).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .job import JobState, QueryJob

__all__ = ["ServingReport", "percentile"]


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]); 0.0 when empty."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return s[lo]
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _dist(values) -> dict:
    return {
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "p99": percentile(values, 0.99),
        "mean": (sum(values) / len(values)) if values else 0.0,
        "max": max(values, default=0.0),
        "count": len(values),
    }


def timeline(jobs) -> tuple[float, float, float, dict]:
    """A run's ``(end_s, makespan_s, throughput_qps, latency)``: its span
    from first arrival to last completion (0.0 without jobs) and the
    total / queue-wait / service distributions of its completed jobs."""
    completed = [j for j in jobs if j.state == JobState.COMPLETED]
    start = min((j.arrival_s for j in jobs), default=0.0)
    end = max((j.completion_s for j in jobs if j.completion_s is not None), default=start)
    makespan = end - start
    throughput = len(completed) / makespan if makespan > 0 else 0.0
    latency = {
        "total_s": _dist([j.latency_s for j in completed]),
        "queue_wait_s": _dist([j.queue_wait_s for j in completed]),
        "service_s": _dist([j.service_s for j in completed]),
    }
    return end, makespan, throughput, latency


def latency_lines(latency: dict) -> list[str]:
    """The three latency lines of a report summary."""
    labels = {"total_s": "total latency", "queue_wait_s": "queue wait", "service_s": "service time"}
    return [
        f"  {label:<16}" + "  ".join(f"{q}={latency[key][q]:.6f}s" for q in ("p50", "p95", "p99"))
        for key, label in labels.items()
    ]


@dataclass
class ServingReport:
    """Everything a serving run produced, ready for JSON or a summary."""

    policy: str
    streams: int
    seed: int
    jobs: list[QueryJob] = field(repr=False)
    makespan_s: float
    throughput_qps: float
    latency: dict
    counters: dict
    schedule_digest: str

    @classmethod
    def build(cls, policy, streams, seed, jobs, counters, schedule_digest):
        _end, makespan, throughput, latency = timeline(jobs)
        return cls(
            policy=policy,
            streams=streams,
            seed=seed,
            jobs=jobs,
            makespan_s=makespan,
            throughput_qps=throughput,
            latency=latency,
            counters=counters,
            schedule_digest=schedule_digest,
        )

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "streams": self.streams,
            "seed": self.seed,
            "makespan_s": self.makespan_s,
            "throughput_qps": self.throughput_qps,
            "latency": self.latency,
            "counters": self.counters,
            "schedule_digest": self.schedule_digest,
            "jobs": [j.to_dict() for j in self.jobs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        c = self.counters
        lines = [
            f"serving report — policy={self.policy} streams={self.streams} "
            f"seed={self.seed}",
            f"  jobs: {c['submitted']} submitted, {c['completed']} completed, "
            f"{c['failed']} failed, {c['rejected']} rejected "
            f"({c['expired_in_queue']} expired in queue, {c['degraded']} degraded)",
            f"  makespan: {self.makespan_s:.6f}s sim  "
            f"throughput: {self.throughput_qps:.2f} q/s",
            *latency_lines(self.latency),
            f"  schedule digest: {self.schedule_digest}",
        ]
        return "\n".join(lines)
