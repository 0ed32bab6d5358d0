"""Admission control for the shared processing pool.

A query is admitted only when its estimated working set fits inside the
pool's *headroom* — capacity scaled by a safety fraction, minus the
advisory reservations of every already-admitted query.  Waiting queries
sit in a **bounded** queue (arrivals past the bound are rejected
outright, the classic load-shedding knob), and time spent queued is
accounted and charged against the query's deadline on admission.

Reservations are advisory (see :meth:`~repro.gpu.rmm.PoolAllocator
.reserve`): they never move the allocator's free list, so an estimate
that is wrong does not break execution — a genuinely oversized query
still hits the pool's real OOM and walks the degradation path.
"""

from __future__ import annotations

from ..gpu.rmm import PoolAllocator
from .job import QueryJob

__all__ = ["AdmissionController", "TokenBucket"]

# Reservation cap of an over-pool query under ``out_of_core`` admission.
SPILL_FOOTPRINT_FRACTION = 0.5


class TokenBucket:
    """A deterministic token bucket on the virtual serving timeline.

    Tokens refill continuously at ``rate_per_s`` up to ``burst``; a
    request consumes whole tokens at its arrival instant.  Refill depends
    only on the elapsed virtual time, so the same arrival sequence always
    produces the same admit/throttle decisions.  This is the per-tenant
    quota primitive the fleet layer layers over the pool-headroom
    admission controller above.
    """

    def __init__(self, rate_per_s: float, burst: float):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one token")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self.tokens = float(burst)  # start full: a quiet tenant can burst
        self._last_refill = 0.0
        self.granted = 0
        self.throttled = 0

    def _refill(self, now: float) -> None:
        if now > self._last_refill:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last_refill) * self.rate_per_s
            )
            self._last_refill = now

    def available(self, now: float) -> float:
        """Tokens available at virtual time ``now`` (refills first)."""
        self._refill(now)
        return self.tokens

    def try_take(self, now: float) -> bool:
        """Consume one token at ``now`` if available."""
        self._refill(now)
        if self.tokens + 1e-12 >= 1.0:
            self.tokens -= 1.0
            self.granted += 1
            return True
        self.throttled += 1
        return False


class AdmissionController:
    """Gates admission on estimated working set vs pool headroom."""

    def __init__(
        self,
        pool: PoolAllocator,
        headroom_fraction: float = 0.9,
        max_queue_depth: int = 32,
        out_of_core: bool = False,
    ):
        """
        Args:
            pool: The shared processing pool being protected.
            headroom_fraction: Fraction of pool capacity admissions may
                collectively reserve (the rest absorbs estimate error).
            max_queue_depth: Bound on the admission wait queue; arrivals
                beyond it are rejected.
            out_of_core: The engine behind the pool runs partitioned
                out-of-core execution: an over-pool query is then a
                *streaming* job whose resident footprint is bounded by
                spilling, so its reservation is capped at
                ``SPILL_FOOTPRINT_FRACTION`` of pool capacity (the spill
                machinery holds at most about that much resident).
        """
        if not 0.0 < headroom_fraction <= 1.0:
            raise ValueError("headroom_fraction must be in (0, 1]")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        self.pool = pool
        self.headroom_fraction = headroom_fraction
        self.max_queue_depth = max_queue_depth
        self.out_of_core = bool(out_of_core)
        self.forced = 0  # admissions that overrode the headroom check

    @property
    def headroom_bytes(self) -> int:
        """Bytes of reservable headroom left in the pool."""
        budget = int(self.pool.capacity * self.headroom_fraction)
        return budget - self.pool.reserved_total

    def _demand(self, job: QueryJob) -> int:
        demand = job.estimate.working_set_bytes if job.estimate is not None else 0
        if self.out_of_core:
            # A spilling query's resident footprint is bounded by the
            # partition budget, not its full working set.
            cap = int(self.pool.capacity * SPILL_FOOTPRINT_FRACTION)
            return min(demand, cap)
        return demand

    def can_admit(self, job: QueryJob) -> bool:
        """Would admitting ``job`` keep reservations within headroom?"""
        return self._demand(job) <= self.headroom_bytes

    def admit(self, job: QueryJob, forced: bool = False) -> None:
        """Reserve the job's estimated working set in the pool.

        ``forced`` marks an admission that overrode the headroom check —
        the scheduler forces the queue head through when nothing is
        running and nothing else ever will be (a query estimated larger
        than the pool must still get its chance to run and degrade).
        """
        self.pool.reserve(job.owner_key, self._demand(job))
        if forced:
            self.forced += 1

    def release(self, job: QueryJob) -> int:
        """Drop the job's reservation (on completion or failure)."""
        return self.pool.unreserve(job.owner_key)
