"""Workload drivers: seeded open- and closed-loop query generators.

* **Open loop** — queries arrive on a Poisson process at a fixed rate,
  regardless of how the system keeps up (the tail-latency-honest load
  model: queue wait explodes when the arrival rate crosses capacity).
* **Closed loop** — N clients each keep exactly one query in flight,
  submitting the next one on completion after a think time (throughput-
  oriented; queue wait is bounded by the client count).

Both draw every random choice from one `random.Random` seeded from the
driver's seed, so a (seed, workload, policy, streams) tuple fully
determines the schedule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..columnar import Table
from ..core.sirius import SiriusEngine
from .report import ServingReport
from .scheduler import ServingScheduler

__all__ = [
    "WorkloadQuery",
    "WorkloadDriver",
    "bursty_rate",
    "diurnal_rate",
    "modulated_arrival_times",
]


def diurnal_rate(base_qps: float, peak_qps: float, period_s: float) -> Callable[[float], float]:
    """A sinusoidal day/night arrival-rate curve.

    Rate starts at ``base_qps`` (midnight), peaks at ``peak_qps`` half a
    period in, and returns — the classic diurnal traffic shape scaled to
    simulated seconds.  Returns ``rate(t)``.
    """
    if base_qps <= 0 or peak_qps < base_qps:
        raise ValueError("need 0 < base_qps <= peak_qps")
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    swing = peak_qps - base_qps

    def rate(t: float) -> float:
        return base_qps + swing * 0.5 * (1.0 - math.cos(2.0 * math.pi * t / period_s))

    return rate


def bursty_rate(
    base_qps: float, burst_qps: float, burst_every_s: float, burst_len_s: float
) -> Callable[[float], float]:
    """A square-wave burst curve: ``burst_qps`` for the first
    ``burst_len_s`` of every ``burst_every_s`` window, ``base_qps``
    otherwise (flash-crowd load against which tail latency is measured).
    """
    if base_qps <= 0 or burst_qps < base_qps:
        raise ValueError("need 0 < base_qps <= burst_qps")
    if not 0 < burst_len_s < burst_every_s:
        raise ValueError("need 0 < burst_len_s < burst_every_s")

    def rate(t: float) -> float:
        return burst_qps if (t % burst_every_s) < burst_len_s else base_qps

    return rate


def modulated_arrival_times(
    rng: random.Random, n: int, rate_fn: Callable[[float], float], rate_max: float
) -> list[float]:
    """``n`` arrival instants of a non-homogeneous Poisson process with
    intensity ``rate_fn`` via Lewis–Shedler thinning: candidate arrivals
    are drawn at the envelope rate ``rate_max`` and accepted with
    probability ``rate(t) / rate_max``.  Deterministic in ``rng``.
    """
    if rate_max <= 0:
        raise ValueError("rate_max must be positive")
    times: list[float] = []
    t = 0.0
    while len(times) < n:
        t += rng.expovariate(rate_max)
        if rng.random() * rate_max <= rate_fn(t):
            times.append(t)
    return times


@dataclass(frozen=True)
class WorkloadQuery:
    """One query template in the mix, drawn with the given weight."""

    label: str
    plan: Any
    weight: float = 1.0


class WorkloadDriver:
    """Generates seeded workloads and runs them through a scheduler."""

    def __init__(
        self,
        engine: SiriusEngine,
        catalog: Mapping[str, Table],
        queries: Sequence[WorkloadQuery],
        seed: int = 0,
    ):
        if not queries:
            raise ValueError("workload needs at least one query template")
        self.engine = engine
        self.catalog = catalog
        self.queries = list(queries)
        self.seed = seed

    def _scheduler(self, policy, streams, **kwargs) -> ServingScheduler:
        return ServingScheduler(
            self.engine, policy=policy, streams=streams, seed=self.seed, **kwargs
        )

    def _pick(self, rng: random.Random) -> WorkloadQuery:
        return rng.choices(self.queries, weights=[q.weight for q in self.queries])[0]

    def open_loop(
        self,
        num_queries: int,
        rate_qps: float,
        policy="fifo",
        streams: int = 4,
        deadline_s: float | None = None,
        **scheduler_kwargs,
    ) -> ServingReport:
        """Poisson arrivals at ``rate_qps``; returns the serving report."""
        if rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        sched = self._scheduler(policy, streams, **scheduler_kwargs)
        rng = random.Random(f"open-loop:{self.seed}")
        t = 0.0
        for _ in range(num_queries):
            t += rng.expovariate(rate_qps)
            q = self._pick(rng)
            sched.submit(
                q.plan, self.catalog, label=q.label, arrival_s=t, deadline_s=deadline_s
            )
        return sched.run()

    def closed_loop(
        self,
        clients: int,
        requests_per_client: int,
        policy="fifo",
        streams: int = 4,
        deadline_s: float | None = None,
        **scheduler_kwargs,
    ) -> ServingReport:
        """``clients`` concurrent clients, one query in flight each."""
        if clients < 1 or requests_per_client < 1:
            raise ValueError("need at least one client and one request")
        sched = self._scheduler(policy, streams, **scheduler_kwargs)
        rng = random.Random(f"closed-loop:{self.seed}")
        # Pre-draw every client's request sequence so the schedule depends
        # only on the seed, not on completion order.
        sequences = {
            c: [self._pick(rng) for _ in range(requests_per_client)]
            for c in range(clients)
        }
        sent = {c: 0 for c in range(clients)}

        def submit_next(client: int, arrival_s: float) -> None:
            q = sequences[client][sent[client]]
            sent[client] += 1
            sched.submit(
                q.plan,
                self.catalog,
                label=q.label,
                arrival_s=arrival_s,
                deadline_s=deadline_s,
                meta={"client": client},
            )

        def on_complete(job) -> None:
            client = job.meta.get("client")
            if client is not None and sent[client] < requests_per_client:
                base = job.completion_s if job.completion_s is not None else 0.0
                submit_next(client, base)

        sched.on_complete = on_complete
        for c in range(clients):
            submit_next(c, 0.0)
        return sched.run()
